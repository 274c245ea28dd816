package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store/db"
)

// writeLog commits n single-row transactions through a WAL file at path
// and returns the file's bytes.
func writeLog(t *testing.T, path string, n int) []byte {
	t.Helper()
	wal, fh, recovered, err := openWAL(path)
	if err != nil || recovered {
		t.Fatalf("openWAL on a new file: recovered=%v err=%v", recovered, err)
	}
	d := db.New(wal)
	if err := d.CreateTable(db.Schema{Name: "t", Columns: []db.Column{{Name: "v", Type: db.Int}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Insert("t", db.Row{"v": int64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOpenWALTruncatesOnlyATornTail restarts from a log whose last write
// was cut short: the torn frame is cut off, every earlier commit is
// replayed, and new commits append after them.
func TestOpenWALTruncatesOnlyATornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	data := writeLog(t, path, 3)
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	wal, fh, recovered, err := openWAL(path)
	if err != nil || !recovered {
		t.Fatalf("openWAL on a torn log: recovered=%v err=%v", recovered, err)
	}
	defer fh.Close()
	d := db.New(wal)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.RowCount("t"); n != 2 {
		t.Fatalf("recovered %d rows, want the 2 whose commits were whole", n)
	}
	st, err := fh.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= int64(len(data)-5) {
		t.Fatalf("file is %d bytes, want the torn tail of the %d cut off", st.Size(), len(data)-5)
	}
}

// TestOpenWALRefusesCorruptLogs checks that a log damaged anywhere but
// its tail — a flipped byte mid-file, a length past the frame limit, a
// JSON-lines log from an older build — stops startup with the file left
// exactly as it was.
func TestOpenWALRefusesCorruptLogs(t *testing.T) {
	dir := t.TempDir()
	good := writeLog(t, filepath.Join(dir, "good.wal"), 3)
	flipped := bytes.Clone(good)
	flipped[len(good)/2] ^= 0x20
	// A frame word whose length passes its check byte but claims 2 MiB.
	n := uint32(2 << 20)
	word := n | uint32(byte(n)^byte(n>>8)^byte(n>>16)^0xA5)<<24
	oversized := binary.LittleEndian.AppendUint32(bytes.Clone(good[:8]), word)
	oversized = append(oversized, make([]byte, 64)...)
	jsonLines := []byte(`{"kind":0,"table":"users","schema":{"Name":"users"}}` + "\n" +
		`{"kind":1,"table":"users","key":1,"row":{"name":"x"},"tx":2}` + "\n")
	for name, data := range map[string][]byte{"flipped": flipped, "oversized": oversized, "json-lines": jsonLines} {
		path := filepath.Join(dir, name+".wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := openWAL(path); !errors.Is(err, db.ErrCorruptWAL) {
			t.Errorf("%s: openWAL err = %v, want ErrCorruptWAL", name, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data) {
			t.Errorf("%s: refused log was modified (%d bytes, was %d)", name, len(after), len(data))
		}
	}
}
