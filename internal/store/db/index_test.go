package db

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func itemSchema() Schema {
	return Schema{
		Name: "items",
		Columns: []Column{
			{Name: "category", Type: Int},
			{Name: "region", Type: Int},
			{Name: "price", Type: Int},
		},
		Indexes: []string{"category", "region"},
	}
}

// checkLookups compares every Lookup the test can ask for against a
// brute-force filter over Scan, in tx's own view: each result must be
// ascending, duplicate-free and hold exactly the keys Scan finds. Each
// LookupPage must give Lookup's length and its first page.
func checkLookups(t *testing.T, stage string, tx *Tx, values []any) {
	t.Helper()
	for _, col := range []string{"category", "region"} {
		for _, v := range values {
			got, err := tx.Lookup("items", col, v)
			if err != nil {
				t.Fatalf("%s: Lookup(%s=%v): %v", stage, col, v, err)
			}
			var want []int64
			if err := tx.Scan("items", func(k int64, r Row) bool {
				if r[col] == v {
					want = append(want, k)
				}
				return true
			}); err != nil {
				t.Fatalf("%s: Scan: %v", stage, err)
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("%s: Lookup(%s=%v) not strictly ascending: %v", stage, col, v, got)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Lookup(%s=%v) = %v, brute force %v", stage, col, v, got, want)
			}
			for _, limit := range []int{0, 1, 3, 10} {
				total, page, err := tx.LookupPage("items", col, v, limit)
				if err != nil {
					t.Fatalf("%s: LookupPage(%s=%v, %d): %v", stage, col, v, limit, err)
				}
				if total != len(got) || !slices.Equal(page, got[:min(limit, len(got))]) {
					t.Fatalf("%s: LookupPage(%s=%v, %d) = %d, %v; Lookup gives %v", stage, col, v, limit, total, page, got)
				}
			}
		}
	}
}

// TestLookupMatchesScanRandomized drives the posting-list indexes through
// seeded random mixes of inserts, updates that move rows between index
// values or leave them put, and deletes, committed or aborted, plus the
// paths that rewrite rows outside a transaction — CorruptRow, SwapRows,
// RepairTable and Crash+Recover — checking Lookup against Scan inside
// each open transaction and after every step.
func TestLookupMatchesScanRandomized(t *testing.T) {
	const cats, regs = 4, 3
	values := []any{nil}
	for v := int64(0); v <= cats+1; v++ {
		values = append(values, v)
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New(nil)
		if err := d.CreateTable(itemSchema()); err != nil {
			t.Fatal(err)
		}
		randRow := func() Row {
			return Row{
				"category": rng.Int63n(cats) + 1,
				"region":   rng.Int63n(regs) + 1,
				"price":    rng.Int63n(100),
			}
		}
		liveKeys := func(tx *Tx) []int64 {
			var keys []int64
			if err := tx.Scan("items", func(k int64, _ Row) bool {
				keys = append(keys, k)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return keys
		}
		for step := 0; step < 60; step++ {
			stage := fmt.Sprintf("seed %d step %d", seed, step)
			tx := mustBegin(t, d)
			for op := rng.Intn(12); op >= 0; op-- {
				keys := liveKeys(tx)
				switch p := rng.Intn(10); {
				case p < 4 || len(keys) == 0:
					if _, err := tx.Insert("items", randRow()); err != nil {
						t.Fatalf("%s: Insert: %v", stage, err)
					}
				case p < 8:
					k := keys[rng.Intn(len(keys))]
					r, err := tx.Get("items", k)
					if err != nil {
						t.Fatalf("%s: Get(%d): %v", stage, k, err)
					}
					nr := r.Clone()
					if rng.Intn(2) == 0 {
						nr["price"] = rng.Int63n(100) // indexed columns unchanged
					} else {
						nr["category"] = rng.Int63n(cats) + 1
						nr["region"] = rng.Int63n(regs) + 1
					}
					if err := tx.Update("items", k, nr); err != nil {
						t.Fatalf("%s: Update(%d): %v", stage, k, err)
					}
				default:
					if err := tx.Delete("items", keys[rng.Intn(len(keys))]); err != nil {
						t.Fatalf("%s: Delete: %v", stage, err)
					}
				}
			}
			checkLookups(t, stage+" (open tx)", tx, values)
			if rng.Intn(4) == 0 {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			} else if err := tx.Commit(); err != nil {
				t.Fatalf("%s: Commit: %v", stage, err)
			}

			tx = mustBegin(t, d)
			keys := liveKeys(tx)
			tx.Abort()
			if len(keys) >= 2 {
				a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
				switch rng.Intn(8) {
				case 0:
					col := []string{"category", "region"}[rng.Intn(2)]
					if _, err := d.CorruptRow("items", a, col, values[rng.Intn(len(values))]); err != nil {
						t.Fatalf("%s: CorruptRow: %v", stage, err)
					}
				case 1:
					if err := d.SwapRows("items", a, b); err != nil {
						t.Fatalf("%s: SwapRows: %v", stage, err)
					}
				case 2:
					if _, err := d.RepairTable("items"); err != nil {
						t.Fatalf("%s: RepairTable: %v", stage, err)
					}
				case 3:
					d.Crash()
					if err := d.Recover(); err != nil {
						t.Fatalf("%s: Recover: %v", stage, err)
					}
				}
			}
			tx = mustBegin(t, d)
			checkLookups(t, stage, tx, values)
			tx.Abort()
		}
	}
}
