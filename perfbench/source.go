package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ebid"
	"repro/internal/sim"
	"repro/internal/workload"
)

// zipfReads is read-hot's traffic: anonymous visitors, each keeping its
// cookie, sending only read-only operations over items and users picked
// by Zipf popularity.
type zipfReads struct {
	rng          *rand.Rand
	items, users *rand.Zipf
	shares       []opShare
	vus          int
}

// zipfExponent is an assumption of this benchmark, not a measured
// figure: neither the paper nor the repository fixes how popularity is
// skewed over items and users. With 1.1 the 100 most popular of 3,300
// items take about 70% of the views.
const zipfExponent = 1.1

func newZipfReads(seed int64, vus int, users, items int64) *zipfReads {
	rng := rand.New(rand.NewSource(seed))
	return &zipfReads{
		rng:    rng,
		items:  rand.NewZipf(rng, zipfExponent, 1, uint64(items-1)),
		users:  rand.NewZipf(rng, zipfExponent, 1, uint64(users-1)),
		shares: readShares(),
		vus:    vus,
	}
}

// opShare is one operation's cumulative share of a mix.
type opShare struct {
	upTo float64
	op   string
}

// readShares is read-hot's operation mix, taken from the repository's
// Table 1 client emulator (internal/workload) rather than written down a
// second time: a fixed-seed stream of the emulator, filtered to the
// read-only DB and search operations an anonymous visitor can send
// (AboutMe needs a login and is left out), counted once. The fixed seed
// gives every workload seed the same mix.
var readShares = sync.OnceValue(func() []opShare {
	return emulatorShares(1, 200000, func(op string) bool {
		switch opCategory(op) {
		case ebid.CatReadOnlyDB, ebid.CatSearch:
			return op != ebid.AboutMe
		}
		return false
	})
})

// emulatorShares counts the operations keep accepts among the first n
// requests of the Table 1 emulator's stream for seed, and returns their
// cumulative shares in a fixed order.
func emulatorShares(seed int64, n int, keep func(op string) bool) []opShare {
	w := newTable1Walk(seed, 100, 250, 3300)
	counts := map[string]int{}
	total := 0
	for k := 0; k < n; k++ {
		if _, op, _, _ := w.next(k); keep(op) {
			counts[op]++
			total++
		}
	}
	ops := make([]string, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	out := make([]opShare, len(ops))
	sum := 0
	for i, op := range ops {
		sum += counts[op]
		out[i] = opShare{float64(sum) / float64(total), op}
	}
	return out
}

func (z *zipfReads) next(k int) (int, string, string, bool) {
	x := z.rng.Float64()
	op := z.shares[len(z.shares)-1].op
	for _, s := range z.shares {
		if x < s.upTo {
			op = s.op
			break
		}
	}
	var q string
	switch op {
	case ebid.ViewItem, ebid.ViewBidHistory:
		q = "item=" + strconv.FormatUint(z.items.Uint64()+1, 10)
	case ebid.ViewUserInfo:
		q = "user=" + strconv.FormatUint(z.users.Uint64()+1, 10)
	case ebid.SearchItemsByCategory:
		q = "category=" + strconv.Itoa(1+z.rng.Intn(20))
	case ebid.SearchItemsByRegion:
		q = "region=" + strconv.Itoa(1+z.rng.Intn(62))
	}
	return k % z.vus, op, q, false
}

// table1Walk is the paper's traffic: each virtual user walks the Table 1
// Markov chain of the repository's own client emulator
// (internal/workload), replayed here over HTTP. The emulator runs on a
// simulation kernel against a recorder that answers every request at
// once, so it only decides which operation each user sends next.
type table1Walk struct {
	kernel *sim.Kernel
	steps  [][]walkStep
	vus    int
}

type walkStep struct {
	op, query string
	session   string
}

type recorder struct{ w *table1Walk }

func (r recorder) Submit(req *workload.Request) {
	r.w.steps[req.ClientID] = append(r.w.steps[req.ClientID],
		walkStep{op: req.Op, query: encodeArgs(req), session: req.SessionID})
	req.Complete(workload.Response{Body: "ok"})
}

func newTable1Walk(seed int64, vus int, users, items int64) *table1Walk {
	w := &table1Walk{kernel: sim.NewKernel(seed), steps: make([][]walkStep, vus), vus: vus}
	em := workload.NewEmulator(w.kernel, recorder{w}, nil, workload.Config{
		Clients: vus,
		Users:   users,
		Items:   items,
	})
	em.Start()
	return w
}

func (w *table1Walk) next(k int) (int, string, string, bool) {
	vu, idx := k%w.vus, k/w.vus
	for len(w.steps[vu]) <= idx {
		w.kernel.RunFor(time.Minute)
	}
	s := w.steps[vu][idx]
	newVisit := idx > 0 && w.steps[vu][idx-1].session != s.session
	return vu, s.op, s.query, newVisit
}

// encodeArgs renders the emulator's typed arguments as the query string
// the HTTP front decodes. Amounts keep a decimal point so they decode as
// floats.
func encodeArgs(req *workload.Request) string {
	a, ok := req.Args.(*ebid.OpArgs)
	if !ok || a == nil {
		return ""
	}
	var parts []string
	add := func(k string, v int64) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.FormatInt(v, 10))
		}
	}
	add("item", a.Item)
	add("user", a.User)
	add("category", a.Category)
	add("region", a.Region)
	if a.Amount != 0 {
		parts = append(parts, "amount="+strconv.FormatFloat(a.Amount, 'f', 1, 64))
	}
	if a.HasRating {
		parts = append(parts, "rating="+strconv.FormatInt(a.Rating, 10))
	}
	return strings.Join(parts, "&")
}
