package db

import (
	"bytes"
	"testing"
)

// TestLoadWALRoundTrip mirrors commits to a buffer, reloads them with
// LoadWAL as a restarted process would, and checks the recovered
// database sees exactly the committed state.
func TestLoadWALRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	w := NewWALWithSink(&sink)
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	tx := mustBegin(t, d)
	k1, _ := tx.Insert("users", Row{"name": "durable", "rating": int64(1), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	loaded, off, err := LoadWAL(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("LoadWAL: %v", err)
	}
	if off != int64(sink.Len()) {
		t.Fatalf("intact file: offset = %d, want %d", off, sink.Len())
	}
	if loaded.Len() != w.Len() {
		t.Fatalf("loaded %d records, want %d", loaded.Len(), w.Len())
	}
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	tx2 := mustBegin(t, d2)
	defer tx2.Abort()
	if _, err := tx2.Get("users", k1); err != nil {
		t.Fatalf("committed row missing after file reload: %v", err)
	}
}

// TestLoadWALRestoresRowTypes checks the file round trip preserves the
// Row contract's Go types: an Int column must come back as int64 — the
// live code asserts on it — and a Float column must stay float64 even
// when its value is integral.
func TestLoadWALRestoresRowTypes(t *testing.T) {
	var sink bytes.Buffer
	w := NewWALWithSink(&sink)
	d := New(w)
	schema := Schema{
		Name: "typed",
		Columns: []Column{
			{Name: "count", Type: Int},
			{Name: "price", Type: Float},
			{Name: "label", Type: Str},
		},
	}
	if err := d.CreateTable(schema); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	tx := mustBegin(t, d)
	k, err := tx.Insert("typed", Row{"count": int64(7), "price": float64(3), "label": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	loaded, _, err := LoadWAL(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("LoadWAL: %v", err)
	}
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	tx2 := mustBegin(t, d2)
	defer tx2.Abort()
	row, err := tx2.Get("typed", k)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := row["count"].(int64); !ok || v != 7 {
		t.Fatalf("count recovered as %T(%v), want int64(7)", row["count"], row["count"])
	}
	if v, ok := row["price"].(float64); !ok || v != 3 {
		t.Fatalf("price recovered as %T(%v), want float64(3)", row["price"], row["price"])
	}
}

// TestLoadWALTornTail torn-writes the last record (a crash mid-flush)
// and checks the loader stops at the last intact record and reports the
// truncation offset, so the next incarnation can append cleanly.
func TestLoadWALTornTail(t *testing.T) {
	var sink bytes.Buffer
	w := NewWALWithSink(&sink)
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	tx := mustBegin(t, d)
	k1, _ := tx.Insert("users", Row{"name": "safe", "rating": int64(1), "region": int64(1)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	intact := sink.Len()
	tx2 := mustBegin(t, d)
	if _, err := tx2.Insert("users", Row{"name": "torn", "rating": int64(2), "region": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through the second transaction's records.
	torn := sink.Bytes()[:intact+(sink.Len()-intact)/2]

	loaded, off, err := LoadWAL(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("LoadWAL on torn file: %v", err)
	}
	if off > int64(len(torn)) || off < int64(intact) {
		t.Fatalf("truncation offset %d outside [%d, %d]", off, intact, len(torn))
	}
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	tx3 := mustBegin(t, d2)
	defer tx3.Abort()
	if _, err := tx3.Get("users", k1); err != nil {
		t.Fatalf("first (fully flushed) commit lost: %v", err)
	}
	// The torn transaction never reached its commit mark in the kept
	// prefix — it must not be replayed.
	rows := 0
	err = tx3.Scan("users", func(key int64, row Row) bool {
		rows++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Fatalf("replayed %d rows, want 1 (torn tx must vanish)", rows)
	}
}

// TestAttachSinkAppendsOnly checks a reloaded WAL with a freshly
// attached sink mirrors only new records — replaying the old ones into
// the file would double them on the next recovery. The new sink
// continues the old file, as cmd/ebid-server's does, so the two together
// must load as exactly the reloaded log.
func TestAttachSinkAppendsOnly(t *testing.T) {
	var sink bytes.Buffer
	w := NewWALWithSink(&sink)
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	loaded, _, err := LoadWAL(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	before := loaded.Len()
	var next bytes.Buffer
	loaded.AttachSink(&next)
	d2 := New(loaded)
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	tx := mustBegin(t, d2)
	if _, err := tx.Insert("users", Row{"name": "new", "rating": int64(1), "region": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() <= before {
		t.Fatal("new commit did not append to the reloaded log")
	}
	file := append(bytes.Clone(sink.Bytes()), next.Bytes()...)
	reloaded, _, err := LoadWAL(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.Len(); got != loaded.Len() {
		t.Fatalf("file after AttachSink holds %d records, want the %d of the reloaded log", got, loaded.Len())
	}
	for i, rec := range reloaded.records[before:] {
		if rec.Kind == recCreateTable {
			t.Fatalf("record %d: old create-table record re-mirrored into the new sink", before+i)
		}
	}
}
