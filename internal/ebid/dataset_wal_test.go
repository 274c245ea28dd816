package ebid

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/store/db"
)

// dumpTables copies every table of d, row by row.
func dumpTables(t *testing.T, d *db.DB) map[string]map[int64]db.Row {
	t.Helper()
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	out := map[string]map[int64]db.Row{}
	for _, name := range d.Tables() {
		rows := map[int64]db.Row{}
		if err := tx.Scan(name, func(k int64, r db.Row) bool {
			rows[k] = r
			return true
		}); err != nil {
			t.Fatal(err)
		}
		out[name] = rows
	}
	return out
}

// TestDatasetSurvivesWALFile loads the dataset through a WAL file sink,
// reads the file back as a respawned server does (LoadWAL, then
// Recover), and checks every table comes back row by row with the Row
// contract's native column types (reflect.DeepEqual tells int64 from
// float64). BenchmarkLoadWAL repeats the check at the paper's scale.
func TestDatasetSurvivesWALFile(t *testing.T) {
	var file bytes.Buffer
	orig := db.New(db.NewWALWithSink(&file))
	if err := LoadDataset(orig, DefaultDataset()); err != nil {
		t.Fatal(err)
	}
	w, off, err := db.LoadWAL(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(file.Len()) {
		t.Fatalf("LoadWAL stopped at %d of %d bytes", off, file.Len())
	}
	back := db.New(w)
	if err := back.Recover(); err != nil {
		t.Fatal(err)
	}
	want, got := dumpTables(t, orig), dumpTables(t, back)
	if len(want[TblItems]) == 0 || len(want[TblBids]) == 0 {
		t.Fatalf("dataset loaded no items or bids: %d, %d", len(want[TblItems]), len(want[TblBids]))
	}
	if !reflect.DeepEqual(got, want) {
		for name, rows := range want {
			for k, r := range rows {
				if !reflect.DeepEqual(got[name][k], r) {
					t.Fatalf("%s row %d: recovered %#v, loaded %#v", name, k, got[name][k], r)
				}
			}
		}
		t.Fatalf("recovered tables differ from the loaded ones")
	}
}
