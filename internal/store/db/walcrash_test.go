package db

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// typedSchema has a column of every Row value type, nullable ones
// included, so a history over it exercises every value tag.
func typedSchema() Schema {
	return Schema{
		Name: "typed",
		Columns: []Column{
			{Name: "count", Type: Int},
			{Name: "price", Type: Float},
			{Name: "label", Type: Str},
			{Name: "open", Type: Bool},
			{Name: "note", Type: Str, Nullable: true},
		},
		Indexes: []string{"label"},
	}
}

// snapshot copies every table's rows (rows are immutable, so the row
// objects themselves are shared).
func snapshot(d *DB) map[string]map[int64]Row {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := map[string]map[int64]Row{}
	for name, t := range d.tables {
		out[name] = maps.Clone(t.rows)
	}
	return out
}

// walStep is one acknowledged operation of a history: the sink length
// once it returned, and the tables it left.
type walStep struct {
	end   int
	state map[string]map[int64]Row
}

// walHistory runs a small mixed history through a sink — two tables,
// single- and multi-row commits, updates and a delete — and returns the
// file plus the state after each acknowledged operation (the first step
// is the empty database at offset 0). Every operation runs alone, so each
// ends on a frame boundary.
func walHistory(t testing.TB) ([]byte, []walStep) {
	var sink bytes.Buffer
	d := New(NewWALWithSink(&sink))
	steps := []walStep{{0, snapshot(d)}}
	ack := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, walStep{sink.Len(), snapshot(d)})
	}
	ack(d.CreateTable(userSchema()))
	ack(d.CreateTable(typedSchema()))
	commit := func(ops func(tx *Tx) error) {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := ops(tx); err != nil {
			t.Fatal(err)
		}
		ack(tx.Commit())
	}
	commit(func(tx *Tx) error {
		_, err := tx.Insert("users", Row{"name": "ann", "rating": int64(-3), "region": int64(1), "email": nil})
		return err
	})
	commit(func(tx *Tx) error {
		if _, err := tx.Insert("typed", Row{"count": int64(1 << 40), "price": 2.5, "label": "a", "open": true, "note": "first"}); err != nil {
			return err
		}
		_, err := tx.Insert("typed", Row{"count": int64(0), "price": float64(3), "label": "", "open": false})
		return err
	})
	commit(func(tx *Tx) error {
		return tx.Update("users", 1, Row{"name": "ann b", "rating": int64(4), "region": int64(2), "email": "a@b"})
	})
	commit(func(tx *Tx) error {
		if err := tx.Delete("typed", 1); err != nil {
			return err
		}
		_, err := tx.Insert("users", Row{"name": strings.Repeat("z", 300), "rating": int64(0), "region": int64(1)})
		return err
	})
	return bytes.Clone(sink.Bytes()), steps
}

// TestWALCrashPoints cuts a real sink file at every byte offset, as a
// crash mid-write can, and checks LoadWAL+Recover yields exactly the
// state of the last operation acknowledged before the cut — never an
// error, never a partial transaction, and with native column types.
func TestWALCrashPoints(t *testing.T) {
	file, steps := walHistory(t)
	for off := 0; off <= len(file); off++ {
		loaded, end, err := LoadWAL(bytes.NewReader(file[:off]))
		if err != nil {
			t.Fatalf("cut at %d: LoadWAL: %v", off, err)
		}
		want := steps[0]
		for _, s := range steps {
			if s.end <= off {
				want = s
			}
		}
		if end < int64(want.end) || end > int64(off) {
			t.Fatalf("cut at %d: offset %d outside [%d, %d]", off, end, want.end, off)
		}
		d := New(loaded)
		if err := d.Recover(); err != nil {
			t.Fatalf("cut at %d: Recover: %v", off, err)
		}
		if got := snapshot(d); !reflect.DeepEqual(got, want.state) {
			t.Fatalf("cut at %d: recovered %v, want the state acknowledged at %d: %v", off, got, want.end, want.state)
		}
	}
}

// TestWALFlippedByteIsCorruption damages one byte of a sink file at a
// time — header, length words, payloads and CRCs of every frame, the
// final one included — and checks LoadWAL reports corruption instead of
// truncating the log at the damage.
func TestWALFlippedByteIsCorruption(t *testing.T) {
	file, _ := walHistory(t)
	for i := range file {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := bytes.Clone(file)
			bad[i] ^= mask
			if _, _, err := LoadWAL(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("byte %d ^ %#02x: LoadWAL err = %v, want ErrCorruptWAL", i, mask, err)
			}
		}
	}
}

// TestLoadWALRefusesForeignFiles covers the inputs that must fail
// instead of loading as a torn log: a frame whose length passes its
// check but exceeds the frame limit, and the JSON-lines log older builds
// wrote.
func TestLoadWALRefusesForeignFiles(t *testing.T) {
	oversized := binary.LittleEndian.AppendUint32([]byte(walMagic), frameWord(maxFrame+1))
	jsonLines := []byte(`{"kind":0,"table":"users","schema":{"Name":"users"}}` + "\n")
	for name, data := range map[string][]byte{"oversized frame": oversized, "JSON lines": jsonLines} {
		if _, _, err := LoadWAL(bytes.NewReader(data)); !errors.Is(err, ErrCorruptWAL) {
			t.Errorf("%s: LoadWAL err = %v, want ErrCorruptWAL", name, err)
		}
	}
}

// TestCommitRefusesValuesTheSinkCannotHold checks that a row value
// outside the Row contract (in a column the schema does not declare, so
// validation lets it through) fails Commit when a sink is attached, with
// nothing logged, installed or written — never acknowledged and then
// missing from the file.
func TestCommitRefusesValuesTheSinkCannotHold(t *testing.T) {
	var sink bytes.Buffer
	w := NewWALWithSink(&sink)
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	records, written := w.Len(), sink.Len()
	for name, extra := range map[string]any{"foreign type": []byte("x"), "int": 7, "oversized": strings.Repeat("x", maxFrame)} {
		tx := mustBegin(t, d)
		if _, err := tx.Insert("users", Row{"name": "n", "rating": int64(1), "region": int64(1), "extra": extra}); err != nil {
			t.Fatalf("%s: Insert: %v", name, err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrBadValue) {
			t.Fatalf("%s: Commit err = %v, want ErrBadValue", name, err)
		}
		if n, _ := d.RowCount("users"); n != 0 || w.Len() != records || sink.Len() != written {
			t.Fatalf("%s: refused commit left %d rows, %d records, %d sink bytes", name, n, w.Len(), sink.Len())
		}
	}
	tx := mustBegin(t, d)
	if _, err := tx.Insert("users", Row{"name": "ok", "rating": int64(1), "region": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("valid commit after refusals: %v", err)
	}
}

// gatedWriter fails every write once failing is set. The first failing
// write blocks until release closes, so a test can queue a second batch
// behind it.
type gatedWriter struct {
	failing atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

var errDiskFull = errors.New("disk full")

func (g *gatedWriter) Write(p []byte) (int, error) {
	if !g.failing.Load() {
		return len(p), nil
	}
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return 0, errDiskFull
}

// TestSinkFailureReachesEveryCommitter fails the sink under a flush
// while a second group-commit batch queues behind it, and checks every
// committer of both batches gets the error — the leaders and the
// followers — and that the WAL latches it: Failed closes, and later
// commits and table creations fail before touching anything.
func TestSinkFailureReachesEveryCommitter(t *testing.T) {
	g := &gatedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	w := NewWALWithSink(g)
	d := New(w)
	if err := d.CreateTable(userSchema()); err != nil {
		t.Fatal(err)
	}
	g.failing.Store(true)
	commit := func(name string) error {
		tx, err := d.Begin()
		if err != nil {
			return err
		}
		if _, err := tx.Insert("users", Row{"name": name, "rating": int64(0), "region": int64(1)}); err != nil {
			return err
		}
		return tx.Commit()
	}
	const committers = 6
	errs := make(chan error, committers)
	go func() { errs <- commit("leader") }()
	<-g.entered // the first batch is in its failing write
	for i := 1; i < committers; i++ {
		go func() { errs <- commit("queued") }()
	}
	// Each commit logs an insert and a mark; wait until all are staged.
	for w.Len() < 1+2*committers {
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	for i := 0; i < committers; i++ {
		if err := <-errs; !errors.Is(err, ErrSinkFailed) || !errors.Is(err, errDiskFull) {
			t.Fatalf("committer got %v, want the sink's error", err)
		}
	}
	if batches, _, _ := w.GroupCommitStats(); batches != 3 {
		t.Fatalf("batches = %d, want 3 (create, the failed flush, the batch queued behind it)", batches)
	}
	select {
	case <-w.Failed():
	default:
		t.Fatal("Failed not closed after a sink failure")
	}
	records := w.Len()
	if err := commit("late"); !errors.Is(err, ErrSinkFailed) {
		t.Fatalf("commit after the failure: %v, want the latched error", err)
	}
	if err := d.CreateTable(typedSchema()); !errors.Is(err, ErrSinkFailed) {
		t.Fatalf("CreateTable after the failure: %v, want the latched error", err)
	}
	if w.Len() != records {
		t.Fatalf("the log grew from %d to %d records after the sink failed", records, w.Len())
	}
}

// FuzzLoadWAL feeds LoadWAL arbitrary files. It must never panic; its
// allocation must stay bounded by the input size, whatever lengths the
// input claims; a clean load ends inside the input, and Recover over it
// must not panic either. The seed corpus — a valid file, torn and
// flipped copies, an oversized length, a JSON-lines log — runs with the
// ordinary tests.
func FuzzLoadWAL(f *testing.F) {
	file, _ := walHistory(f)
	f.Add(file)
	f.Add(file[:len(file)-3])
	f.Add(file[:len(file)/2])
	f.Add([]byte(walMagic[:5]))
	f.Add([]byte{})
	flipped := bytes.Clone(file)
	flipped[len(file)/2] ^= 0x10
	f.Add(flipped)
	f.Add(binary.LittleEndian.AppendUint32([]byte(walMagic), frameWord(maxFrame)))
	f.Add(binary.LittleEndian.AppendUint32([]byte(walMagic), frameWord(maxFrame+1)))
	f.Add([]byte(`{"kind":1,"table":"users","key":1,"row":{"name":"x"}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, off, err := LoadWAL(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// The read buffer and the first step of a frame read are fixed
		// costs; past them every allocated byte answers to input bytes.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+256<<10 {
			t.Fatalf("LoadWAL of %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptWAL) {
				t.Fatalf("LoadWAL error %v does not wrap ErrCorruptWAL", err)
			}
			return
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside the %d-byte input", off, len(data))
		}
		_ = New(w).Recover() // may reject a table it never saw created
	})
}
