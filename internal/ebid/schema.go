package ebid

import (
	"fmt"

	"repro/internal/store/db"
)

// Table names in the persistence tier.
const (
	TblUsers      = "users"
	TblItems      = "items"
	TblBids       = "bids"
	TblBuys       = "buys"
	TblCategories = "categories"
	TblRegions    = "regions"
	TblOldItems   = "old_items"
	TblFeedback   = "feedback"
	TblIDSeq      = "id_seq"
)

// MaxUserID bounds valid user ids; the primary-key corruption faults use
// values outside this range as "invalid" (type-checks, semantically
// impossible).
const MaxUserID = 1 << 40

// Schemas returns the full eBid database schema.
func Schemas() []db.Schema {
	return []db.Schema{
		{
			Name: TblUsers,
			Columns: []db.Column{
				{Name: "nickname", Type: db.Str},
				{Name: "rating", Type: db.Int},
				{Name: "region", Type: db.Int, Checked: 1, MinInt: 1, MaxInt: 1 << 20},
				{Name: "balance", Type: db.Float},
			},
			Indexes: []string{"region", "nickname"},
		},
		{
			Name: TblItems,
			Columns: []db.Column{
				{Name: "name", Type: db.Str},
				{Name: "seller", Type: db.Int, Checked: 1, MinInt: 1, MaxInt: MaxUserID},
				{Name: "category", Type: db.Int, Checked: 1, MinInt: 1, MaxInt: 1 << 20},
				{Name: "region", Type: db.Int, Checked: 1, MinInt: 1, MaxInt: 1 << 20},
				{Name: "price", Type: db.Float},
				{Name: "max_bid", Type: db.Float},
				{Name: "nb_bids", Type: db.Int},
				{Name: "quantity", Type: db.Int},
			},
			Indexes: []string{"category", "region", "seller"},
		},
		{
			Name: TblBids,
			Columns: []db.Column{
				{Name: "user", Type: db.Int, Checked: 1, MinInt: 1, MaxInt: MaxUserID},
				{Name: "item", Type: db.Int},
				{Name: "amount", Type: db.Float},
			},
			Indexes: []string{"user", "item"},
		},
		{
			Name: TblBuys,
			Columns: []db.Column{
				{Name: "user", Type: db.Int, Checked: 1, MinInt: 1, MaxInt: MaxUserID},
				{Name: "item", Type: db.Int},
				{Name: "quantity", Type: db.Int},
			},
			Indexes: []string{"user", "item"},
		},
		{
			Name: TblCategories,
			Columns: []db.Column{
				{Name: "name", Type: db.Str},
			},
		},
		{
			Name: TblRegions,
			Columns: []db.Column{
				{Name: "name", Type: db.Str},
			},
		},
		{
			Name: TblOldItems,
			Columns: []db.Column{
				{Name: "name", Type: db.Str},
				{Name: "seller", Type: db.Int},
				{Name: "final_price", Type: db.Float},
			},
			Indexes: []string{"seller"},
		},
		{
			Name: TblFeedback,
			Columns: []db.Column{
				{Name: "from_user", Type: db.Int, Checked: 1, MinInt: 1, MaxInt: MaxUserID},
				{Name: "to_user", Type: db.Int, Checked: 1, MinInt: 1, MaxInt: MaxUserID},
				{Name: "rating", Type: db.Int, Checked: 1, MinInt: -5, MaxInt: 5},
				{Name: "comment", Type: db.Str},
			},
			Indexes: []string{"to_user"},
		},
		{
			// id_seq backs the IdentityManager entity: one row per entity
			// kind holding the next application-level primary key. The
			// "corrupt primary keys" faults of Table 2 target this data.
			Name: TblIDSeq,
			Columns: []db.Column{
				{Name: "kind", Type: db.Str},
				{Name: "next", Type: db.Int, Checked: 1, MinInt: 1, MaxInt: MaxUserID},
			},
			Indexes: []string{"kind"},
		},
	}
}

// DatasetConfig scales the synthetic dataset. The paper's dataset was
// 132K items, 1.5M bids and 10K users; the default here is a 1:40 scale
// model with identical shape, so experiments run quickly. Benchmarks that
// want the full-size dataset can ask for it.
type DatasetConfig struct {
	Users       int
	Items       int
	BidsPerItem int
	Categories  int
	Regions     int
	OldItems    int
	Seed        int64
}

// DefaultDataset is the 1:40 scale model of the paper's dataset.
func DefaultDataset() DatasetConfig {
	return DatasetConfig{
		Users:       250,
		Items:       3300,
		BidsPerItem: 11, // 1.5M/132K ≈ 11 bids per item, preserved
		Categories:  20,
		Regions:     62,
		OldItems:    200,
		Seed:        1,
	}
}

// PaperDataset is the full-size dataset of the paper.
func PaperDataset() DatasetConfig {
	return DatasetConfig{
		Users:       10000,
		Items:       132000,
		BidsPerItem: 11,
		Categories:  20,
		Regions:     62,
		OldItems:    10000,
		Seed:        1,
	}
}

// LoadDataset creates the schema and populates the database.
func LoadDataset(d *db.DB, cfg DatasetConfig) error {
	for _, s := range Schemas() {
		if err := d.CreateTable(s); err != nil {
			return err
		}
	}
	tx, err := d.Begin()
	if err != nil {
		return err
	}
	defer func() {
		if !tx.Done() {
			_ = tx.Abort()
		}
	}()

	for i := 1; i <= cfg.Categories; i++ {
		if err := tx.InsertWithKey(TblCategories, int64(i), db.Row{"name": fmt.Sprintf("category-%d", i)}); err != nil {
			return err
		}
	}
	for i := 1; i <= cfg.Regions; i++ {
		if err := tx.InsertWithKey(TblRegions, int64(i), db.Row{"name": fmt.Sprintf("region-%d", i)}); err != nil {
			return err
		}
	}
	for i := 1; i <= cfg.Users; i++ {
		row := db.Row{
			"nickname": fmt.Sprintf("user%d", i),
			"rating":   int64(i % 11),
			"region":   int64(i%cfg.Regions + 1),
			"balance":  float64(100 + i%900),
		}
		if err := tx.InsertWithKey(TblUsers, int64(i), row); err != nil {
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}

	// Items and bids go in batched transactions to keep memory bounded.
	const batch = 2000
	for lo := 1; lo <= cfg.Items; lo += batch {
		tx, err := d.Begin()
		if err != nil {
			return err
		}
		hi := lo + batch - 1
		if hi > cfg.Items {
			hi = cfg.Items
		}
		for i := lo; i <= hi; i++ {
			row := db.Row{
				"name":     fmt.Sprintf("item-%d", i),
				"seller":   int64(i%cfg.Users + 1),
				"category": int64(i%cfg.Categories + 1),
				"region":   int64(i%cfg.Regions + 1),
				"price":    float64(1 + i%500),
				"max_bid":  float64(1 + i%500),
				"nb_bids":  int64(cfg.BidsPerItem),
				"quantity": int64(1 + i%5),
			}
			if err := tx.InsertWithKey(TblItems, int64(i), row); err != nil {
				_ = tx.Abort()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	// A thin slice of explicit bid rows (full 1.5M rows are summarized in
	// items.nb_bids; explicit rows back ViewBidHistory).
	nBids := cfg.Items * cfg.BidsPerItem / 10
	if nBids > 0 {
		for lo := 0; lo < nBids; lo += batch {
			tx, err := d.Begin()
			if err != nil {
				return err
			}
			hi := lo + batch
			if hi > nBids {
				hi = nBids
			}
			for i := lo; i < hi; i++ {
				row := db.Row{
					"user":   int64(i%cfg.Users + 1),
					"item":   int64(i%cfg.Items + 1),
					"amount": float64(1 + i%500),
				}
				if _, err := tx.Insert(TblBids, row); err != nil {
					_ = tx.Abort()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
	}
	tx, err = d.Begin()
	if err != nil {
		return err
	}
	for i := 1; i <= cfg.OldItems; i++ {
		row := db.Row{
			"name":        fmt.Sprintf("old-item-%d", i),
			"seller":      int64(i%cfg.Users + 1),
			"final_price": float64(1 + i%500),
		}
		if err := tx.InsertWithKey(TblOldItems, int64(i), row); err != nil {
			_ = tx.Abort()
			return err
		}
	}
	// IdentityManager sequence rows, in a fixed order so every load gives
	// each kind the same key.
	for _, seq := range []struct {
		kind string
		next int64
	}{
		{"user", int64(cfg.Users + 1)},
		{"item", int64(cfg.Items + 1)},
		{"bid", int64(nBids + 1)},
		{"buy", 1},
		{"fb", 1},
	} {
		if _, err := tx.Insert(TblIDSeq, db.Row{"kind": seq.kind, "next": seq.next}); err != nil {
			_ = tx.Abort()
			return err
		}
	}
	return tx.Commit()
}
