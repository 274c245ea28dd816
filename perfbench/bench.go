package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ebid"
	"repro/internal/experiments"
)

// Metric names, in print order. BENCHMARK.json lists the same names
// (end_to_end for the untraced run, per_layer for the traced one).
var (
	endToEnd = []string{"setup_s", "cpu_us_per_req", "rss_mb"}
	perLayer = []string{
		"ebid-proxy.cpu_us_per_req", "ebid-server.cpu_us_per_req",
		"db.rowcache_hit_ratio", "db.rowcache_lookups", "ebid.intern_hit_ratio", "ebid.intern_lookups",
		"db.wal_bytes_per_commit", "db.commits", "db.conflicts_per_1k",
		"fleet.retried_per_1k", "fleet.spilled_per_1k", "fleet.shed_per_1k", "fleet.lost_sessions", "fleet.requests",
		"p50_ms", "p99_ms", "bench.samples", "bench.late_p99_ms", "fail_frac", "max_rps",
		"restart_s", "affected_per_restart", "affected_per_urb",
		"http.client_self_us", "fleet.route_self_us", "httpfront.self_us", "core.war_self_us",
		"ebid.op_self_us.read", "ebid.op_self_us.write", "ebid.entity_us",
		"session.read_us", "session.write_us", "session.ops_per_req", "core.hops_per_req",
		"trace.client_mean_us", "trace.requests", "trace.overhead_frac",
		"ladder.db.get.ns_per_op", "ladder.db.get.allocs_per_op",
		"ladder.ebid.execute.ns_per_op", "ladder.ebid.execute.allocs_per_op",
		"ladder.httpfront.handler.ns_per_op", "ladder.httpfront.handler.allocs_per_op",
		"ladder.http.socket.ns_per_op", "ladder.http.socket.allocs_per_op",
		"ladder.fleet.proxy.ns_per_op", "ladder.fleet.proxy.allocs_per_op",
		"ladder.db.get.share_of_next", "ladder.ebid.execute.share_of_next",
		"ladder.httpfront.handler.share_of_next", "ladder.http.socket.share_of_next",
	}
)

// checkNames reports a report whose metrics are not exactly want, in order.
func checkNames(rep *report, want []string) error {
	var got []string
	for _, m := range rep.Metrics {
		got = append(got, m.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("metrics %v, want %v", got, want)
	}
	return nil
}

// lateShareOfP50 is how late the generator may run, as a share of the
// workload's p50, before a run is rejected: a generator late by a
// sizeable part of a request's own time would be measuring itself. The
// median lateness is checked; the tail (reported as bench.late_p99_ms)
// also holds the host's CPU steal, which delays the programs as much.
const lateShareOfP50 = 0.5

// share1Tolerance is how far (absolute) an op category's share of
// paper-mix traffic may sit from experiments.Table1's share.
const share1Tolerance = 0.03

// fleetRun is what the untraced run of a workload measured.
type fleetRun struct {
	setup     []float64
	results   []result
	cpu       map[string]float64 // CPU seconds in the window, by program
	peakMB    float64
	before    snapshot
	after     snapshot
	events    []event
	maxRPS    float64
	completed int
}

// event is one recovery action during the recover workload.
type event struct {
	kind    string // "urb" or "restart"
	at      time.Time
	ended   time.Time // the disturbed component or backend is back
	restart time.Duration
}

// snapshot is the programs' own counters at one instant.
type snapshot struct {
	caches                 []cacheCounts // per backend
	retried, spilled, shed float64
	lost                   float64
	walBytes               float64
}

// cacheCounts is one backend's read-path cache counters.
type cacheCounts struct{ rowHits, rowMisses, internHits, internMisses float64 }

func getJSON(url string, v any) error {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// post sends an admin POST and decodes its JSON reply into v.
func post(url string, v any) error {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Post(url, "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func takeSnapshot(r *running) (snapshot, error) {
	var s snapshot
	for _, b := range r.backends {
		var st struct {
			Caches struct {
				RowCache   struct{ Hits, Misses float64 } `json:"row_cache"`
				BodyIntern struct{ Hits, Misses float64 } `json:"body_intern"`
			} `json:"caches"`
		}
		if err := getJSON(b+"/admin/fleet/status", &st); err != nil {
			return s, err
		}
		s.caches = append(s.caches, cacheCounts{st.Caches.RowCache.Hits, st.Caches.RowCache.Misses,
			st.Caches.BodyIntern.Hits, st.Caches.BodyIntern.Misses})
	}
	if r.proxied {
		var st struct {
			Router struct {
				Retried float64 `json:"retried"`
				Spilled float64 `json:"spilled"`
				Shed    float64 `json:"shed"`
				Lost    float64 `json:"lost_sessions"`
			} `json:"router"`
		}
		if err := getJSON(r.base+"/admin/proxy/status", &st); err != nil {
			return s, err
		}
		s.retried, s.spilled, s.shed, s.lost = st.Router.Retried, st.Router.Spilled, st.Router.Shed, st.Router.Lost
		files, _ := filepath.Glob(filepath.Join(r.walDir, "*.wal"))
		for _, f := range files {
			if fi, err := os.Stat(f); err == nil {
				s.walBytes += float64(fi.Size())
			}
		}
	}
	return s, nil
}

// delta is after−before for a counter, or after alone when the counter
// restarted (a respawned backend begins from zero).
func delta(before, after float64) float64 {
	if after < before {
		return after
	}
	return after - before
}

// warm fills the caches and finishes lazy set-up before timing: a
// closed sweep over every item and user for the read workload, then
// open-loop traffic at the workload's rate.
func warm(w *Workload, base string, pop *population, conns int) {
	if w.Traffic == "zipf-reads" {
		sweep := &gen{base: base, rate: 1e9, start: time.Now(), conns: conns, drain: time.Minute,
			pop: newPopulation(&sweepReads{items: w.Items, users: w.Users, vus: conns}, conns)}
		sweep.n = int(2*w.Items + w.Users + 20 + 62)
		sweep.run()
	}
	g := &gen{base: base, rate: w.RateRPS, start: time.Now(), conns: conns, drain: 5 * time.Second, pop: pop}
	g.n = int(w.RateRPS * w.WarmupS)
	g.run()
}

// sweepReads visits every item, bid history, user, category and region
// once, in order.
type sweepReads struct {
	items, users int64
	vus          int
}

func (s *sweepReads) next(k int) (int, string, string, bool) {
	i, vu := int64(k), k%s.vus
	switch {
	case i < s.items:
		return vu, ebid.ViewItem, fmt.Sprintf("item=%d", i+1), false
	case i < 2*s.items:
		return vu, ebid.ViewBidHistory, fmt.Sprintf("item=%d", i-s.items+1), false
	case i < 2*s.items+s.users:
		return vu, ebid.ViewUserInfo, fmt.Sprintf("user=%d", i-2*s.items+1), false
	case i < 2*s.items+s.users+20:
		return vu, ebid.SearchItemsByCategory, fmt.Sprintf("category=%d", i-2*s.items-s.users+1), false
	default:
		return vu, ebid.SearchItemsByRegion, fmt.Sprintf("region=%d", (i-2*s.items-s.users-20)%62+1), false
	}
}

// measureFleet launches the workload's topology setups times (keeping the
// last), warms it, and runs the timed open-loop window.
func measureFleet(wf *workloadFile, w *Workload, seed int64, seconds int, setups int, binDir, workDir string, searchMax bool) (*fleetRun, error) {
	fr := &fleetRun{}
	var r *running
	for i := 0; i < setups; i++ {
		var err error
		if r, err = launch(w, binDir, workDir); err != nil {
			return nil, err
		}
		fr.setup = append(fr.setup, r.setup.Seconds())
		if i < setups-1 {
			r.stop()
		}
	}
	defer r.stop()

	pop := newPopulation(w.newSource(seed), w.VirtualUsers)
	warm(w, r.base, pop, wf.Conns)

	var err error
	if fr.before, err = takeSnapshot(r); err != nil {
		return nil, err
	}
	sampler := newCPUSampler(r.pids)
	g := &gen{base: r.base, rate: w.RateRPS, conns: wf.Conns, pop: pop, drain: 15 * time.Second}
	g.n = int(math.Round(w.RateRPS * float64(seconds)))
	g.start = time.Now().Add(20 * time.Millisecond)
	var evWG sync.WaitGroup
	var evErr error
	if w.EventEveryS > 0 {
		evWG.Add(1)
		go func() {
			defer evWG.Done()
			fr.events, evErr = runEvents(r, g.start, time.Duration(seconds)*time.Second, time.Duration(w.EventEveryS*float64(time.Second)))
		}()
	}
	sampler.start(100 * time.Millisecond)
	fr.results = g.run()
	for _, res := range fr.results {
		if !res.done.IsZero() {
			fr.completed++
		}
	}
	fr.cpu, fr.peakMB = sampler.finish()
	evWG.Wait()
	if evErr != nil {
		return nil, evErr
	}
	if fr.after, err = takeSnapshot(r); err != nil {
		return nil, err
	}
	if searchMax {
		fr.maxRPS = searchMaxRPS(w, r, pop, wf.Conns)
	}
	return fr, nil
}

// runEvents alternates a microreboot of ViewItem on the first backend
// and a SIGKILL of the last backend, every `every` from start+every/3,
// while the window lasts. Events are far enough apart that the
// supervisor's crash-loop window (more than 5 crashes in 30 s) never
// escalates.
func runEvents(r *running, start time.Time, window, every time.Duration) ([]event, error) {
	var evs []event
	kind := "urb"
	for at := start.Add(every / 3); at.Before(start.Add(window - every/3)); at = at.Add(every) {
		time.Sleep(time.Until(at))
		ev := event{kind: kind, at: time.Now()}
		switch kind {
		case "urb":
			var st struct {
				DurationMs float64 `json:"duration_ms"`
			}
			if err := post(r.backends[0]+"/admin/microreboot?component="+ebid.ViewItem, &st); err != nil {
				return evs, fmt.Errorf("microreboot: %w", err)
			}
			ev.ended = ev.at.Add(time.Duration(st.DurationMs * float64(time.Millisecond)))
			kind = "restart"
		case "restart":
			victim := r.backends[len(r.backends)-1]
			var h struct {
				Pid  int    `json:"pid"`
				Node string `json:"node"`
			}
			if err := getJSON(victim+"/healthz", &h); err != nil {
				return evs, err
			}
			ev.at = time.Now()
			var killed struct{}
			if err := post(r.base+"/admin/proxy/kill?backend="+h.Node, &killed); err != nil {
				return evs, fmt.Errorf("kill: %w", err)
			}
			deadline := ev.at.Add(60 * time.Second)
			for {
				var now struct {
					Pid int `json:"pid"`
				}
				if err := getJSON(victim+"/healthz", &now); err == nil && now.Pid != h.Pid {
					break
				}
				if time.Now().After(deadline) {
					return evs, fmt.Errorf("%s did not come back within 60s", h.Node)
				}
				time.Sleep(10 * time.Millisecond)
			}
			ev.ended = time.Now()
			ev.restart = ev.ended.Sub(ev.at)
			kind = "urb"
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// eventGrace is how long after a disturbed part is back its effects may
// still show: a Retry-After of 1 s, the proxy's 250 ms health poll, and
// sessions re-pinning.
const eventGrace = 2 * time.Second

// eventOf returns the recovery event whose window holds t, or nil.
func eventOf(evs []event, t time.Time) *event {
	for i := len(evs) - 1; i >= 0; i-- {
		if !t.Before(evs[i].at) && !t.After(evs[i].ended.Add(eventGrace)) {
			return &evs[i]
		}
	}
	return nil
}

// searchMaxRPS raises the offered rate in short steps until the p99
// limit is missed, a request fails, or the backlog grows, then bisects
// once between the last passing and the first failing rate. Each step
// lasts at least 2 s and long enough for a p99 (p99Chunk requests).
func searchMaxRPS(w *Workload, r *running, pop *population, conns int) float64 {
	try := func(rate float64) bool {
		n := max(int(math.Ceil(2*rate)), p99Chunk)
		step := time.Duration(float64(n) / rate * float64(time.Second))
		g := &gen{base: r.base, rate: rate, n: n, conns: conns, pop: pop, drain: 3 * time.Second}
		g.start = time.Now().Add(10 * time.Millisecond)
		res := g.run()
		var lat []float64
		due := make([]time.Time, len(res))
		done := make([]time.Time, len(res))
		for i, x := range res {
			due[i], done[i] = x.due, x.done
			if !x.ok {
				return false
			}
			lat = append(lat, x.done.Sub(x.due).Seconds()*1e3)
		}
		sort.Float64s(lat)
		p99, ok := percentile(lat, 0.99)
		grew := backlogGrew(due, done, g.start, step, rate*0.05+5)
		if !ok || p99 > w.P99LimitMs {
			return false
		}
		return !grew
	}
	pass, fail := 0.0, 0.0
	for rate := w.RateRPS; rate < w.RateRPS*20; rate *= 1.4 {
		if !try(rate) {
			fail = rate
			break
		}
		pass = rate
	}
	if pass > 0 && fail > 0 {
		mid := (pass + fail) / 2
		if try(mid) {
			pass = mid
		}
	}
	return pass
}

// runWorkload runs one workload and builds its report.
func runWorkload(wf *workloadFile, w *Workload, seed int64, seconds int, trace bool, binDir, workDir string) (*report, error) {
	setups := w.SetupRuns
	if trace {
		setups = 1
	}
	fr, err := measureFleet(wf, w, seed, seconds, setups, binDir, workDir, trace && w.EventEveryS == 0)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true}
	lat, late := fleetChecks(w, fr, rep)
	p99, ok := chunkedP99(lat)
	if !ok {
		rep.problem("only %d latency samples: too few for a p99", len(lat))
	}
	sort.Float64s(lat)
	p50 := median(append([]float64(nil), lat...))
	sort.Float64s(late)
	lateP99, _ := percentile(late, 0.99)
	if lateP50 := median(append([]float64(nil), late...)); lateP50 > lateShareOfP50*p50 {
		rep.problem("generator median lateness %.3f ms is not well below p50 %.3f ms", lateP50, p50)
	}
	cpuAll := 0.0
	for _, s := range fr.cpu {
		cpuAll += s
	}
	perReq := func(sec float64) float64 {
		if fr.completed == 0 {
			return 0
		}
		return sec * 1e6 / float64(fr.completed)
	}
	if !trace {
		rep.add("setup_s", median(fr.setup), "s")
		rep.add("cpu_us_per_req", perReq(cpuAll), "us")
		rep.add("rss_mb", fr.peakMB, "MB")
		return rep, checkNames(rep, endToEnd)
	}
	b, a := fr.before, fr.after
	ratio := func(h, m float64) float64 {
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	var rowH, rowM, inH, inM float64
	for i := range a.caches {
		rowH += delta(b.caches[i].rowHits, a.caches[i].rowHits)
		rowM += delta(b.caches[i].rowMisses, a.caches[i].rowMisses)
		inH += delta(b.caches[i].internHits, a.caches[i].internHits)
		inM += delta(b.caches[i].internMisses, a.caches[i].internMisses)
	}
	commits := 0.0
	for _, res := range fr.results {
		if res.ok && (res.op == ebid.RegisterNewUser || opCategory(res.op) == ebid.CatDBUpdate) {
			commits++
		}
	}
	per1k := func(x float64) float64 { return x * 1000 / float64(len(fr.results)) }
	var restartS []float64
	events := map[string]int{}
	affected := map[string]float64{}
	for _, ev := range fr.events {
		events[ev.kind]++
		if ev.kind == "restart" {
			restartS = append(restartS, ev.restart.Seconds())
		}
	}
	for _, res := range fr.results {
		if res.affected {
			if ev := eventOf(fr.events, res.firstFailAt); ev != nil {
				affected[ev.kind]++
			}
		}
	}
	perEvent := func(kind string) float64 {
		if events[kind] == 0 {
			return 0
		}
		return affected[kind] / float64(events[kind])
	}
	rep.add("ebid-proxy.cpu_us_per_req", perReq(fr.cpu["ebid-proxy"]), "us")
	rep.add("ebid-server.cpu_us_per_req", perReq(fr.cpu["ebid-server"]), "us")
	rep.add("db.rowcache_hit_ratio", ratio(rowH, rowM), "ratio")
	rep.add("db.rowcache_lookups", rowH+rowM, "count")
	rep.add("ebid.intern_hit_ratio", ratio(inH, inM), "ratio")
	rep.add("ebid.intern_lookups", inH+inM, "count")
	walPerCommit := 0.0
	if commits > 0 {
		walPerCommit = delta(b.walBytes, a.walBytes) / commits
	}
	rep.add("db.wal_bytes_per_commit", walPerCommit, "B")
	rep.add("db.commits", commits, "count")
	conflicts := 0.0
	for _, res := range fr.results {
		if res.conflict {
			conflicts++
		}
	}
	rep.add("db.conflicts_per_1k", per1k(conflicts), "per_1k")
	rep.add("fleet.retried_per_1k", per1k(delta(b.retried, a.retried)), "per_1k")
	rep.add("fleet.spilled_per_1k", per1k(delta(b.spilled, a.spilled)), "per_1k")
	rep.add("fleet.shed_per_1k", per1k(delta(b.shed, a.shed)), "per_1k")
	rep.add("fleet.lost_sessions", a.lost, "count")
	rep.add("fleet.requests", float64(len(fr.results)), "count")
	rep.add("p50_ms", p50, "ms")
	rep.add("p99_ms", p99, "ms")
	rep.add("bench.samples", float64(len(lat)), "count")
	rep.add("bench.late_p99_ms", lateP99, "ms")
	rep.add("fail_frac", float64(rep.Failed)/float64(rep.Attempted), "ratio")
	rep.add("max_rps", fr.maxRPS, "req/s")
	rep.add("restart_s", median(restartS), "s")
	rep.add("affected_per_restart", perEvent("restart"), "count")
	rep.add("affected_per_urb", perEvent("urb"), "count")
	if err := traced(w, seed, workDir, rep); err != nil {
		return nil, err
	}
	return rep, checkNames(rep, perLayer)
}

// fleetChecks applies the correctness checks to a fleet run, fills the
// report's counts, and returns the latency (ms from due to last byte)
// of every completed request and the generator's lateness (ms).
func fleetChecks(w *Workload, fr *fleetRun, rep *report) (lat, late []float64) {
	rep.Attempted = len(fr.results)
	cats := map[string]float64{}
	for _, res := range fr.results {
		if !res.ok {
			rep.Failed++
		}
		if res.violation != "" {
			rep.problem("%s", res.violation)
		}
		if res.estab5xx && eventOf(fr.events, res.firstFailAt) == nil {
			rep.problem("%s: plain %d to an established session outside any recovery event", res.op, res.status)
		}
		if !res.done.IsZero() {
			lat = append(lat, res.done.Sub(res.due).Seconds()*1e3)
			late = append(late, res.late.Seconds()*1e3)
		}
		cats[opCategory(res.op)]++
	}
	if fr.after.lost != 0 {
		rep.problem("fleet lost %v sessions", fr.after.lost)
	}
	if rep.Failed > 0 {
		rep.problem("%d of %d requests failed", rep.Failed, rep.Attempted)
		shown := 0
		for _, res := range fr.results {
			if !res.ok && shown < 5 {
				shown++
				if res.failure == "" {
					res.failure = res.op + ": no answer before the drain deadline"
				}
				rep.problem("failed: %s", res.failure)
			}
		}
	}
	if w.Traffic == "table1" {
		want := experiments.Table1(experiments.Options{Quick: true}).Share
		for cat, share := range want {
			got := cats[cat] / float64(len(fr.results))
			if math.Abs(got-share) > share1Tolerance {
				rep.problem("op share of %q is %.3f, Table 1 emulator gives %.3f (±%.2f)", cat, got, share, share1Tolerance)
			}
		}
	}
	return lat, late
}

func opCategory(op string) string {
	info, _ := ebid.Info(op)
	return info.Category
}
