package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/fleet"
	"repro/internal/httpfront"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

// span is one timed call into a layer. Spans of one request share req.
type span struct {
	id, parent int64
	req        int64
	name       string
	class      string // ebid.op spans: "read" or "write" (Table 1 category)
	start, end time.Duration
}

// tracer records spans around the calls into each layer of the
// in-process assembly. The traced run keeps one request in flight at a
// time, so the open spans form one stack; a span that would break that
// (another request's span opening inside it) marks the trace mixed, and
// the run is rejected.
type tracer struct {
	on     atomic.Bool // checked before locking, so untraced runs pay one load per hop
	mu     sync.Mutex
	epoch  time.Time
	stack  []int
	spans  []span
	nextID int64
	mixed  bool
}

func (t *tracer) begin(name, class string, req int64) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent int64
	if n := len(t.stack); n > 0 {
		top := t.spans[t.stack[n-1]]
		if req != 0 && req != top.req {
			t.mixed = true
		}
		parent, req = top.id, top.req
	} else if req == 0 {
		t.mixed = true
	}
	t.nextID++
	t.spans = append(t.spans, span{id: t.nextID, parent: parent, req: req, name: name, class: class,
		start: time.Since(t.epoch)})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = time.Since(t.epoch)
	n := len(t.stack)
	if n == 0 || t.stack[n-1] != i {
		t.mixed = true
		for j, x := range t.stack {
			if x == i {
				t.stack = append(t.stack[:j], t.stack[j+1:]...)
				break
			}
		}
		return
	}
	t.stack = t.stack[:n-1]
}

// wrap times ServeHTTP of an HTTP layer for /ebid/ requests.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !strings.HasPrefix(r.URL.Path, "/ebid/") {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
		i := t.begin(name, "", req)
		h.ServeHTTP(w, r)
		t.end(i)
	})
}

// interceptor times every component hop: the WAR, the session
// component of the operation, and each entity call.
func (t *tracer) interceptor() core.Interceptor {
	return func(ctx context.Context, call *core.Call, next core.Handler) (any, error) {
		if !t.on.Load() {
			return next(ctx, call)
		}
		name, class := hopLayer(call.Component)
		i := t.begin(name, class, 0)
		res, err := next(ctx, call)
		t.end(i)
		return res, err
	}
}

func hopLayer(component string) (name, class string) {
	if component == ebid.WAR {
		return "core.war", ""
	}
	if info, ok := ebid.Info(component); ok {
		switch info.Category {
		case ebid.CatReadOnlyDB, ebid.CatSearch, ebid.CatStatic:
			return "ebid.op", "read"
		}
		return "ebid.op", "write"
	}
	return "ebid.entity", ""
}

// timedStore times the session store's Read, Write and Delete.
type timedStore struct {
	session.Store
	t *tracer
}

func (s *timedStore) Read(id string) (*session.Session, error) {
	i := s.t.begin("session.read", "", 0)
	defer s.t.end(i)
	return s.Store.Read(id)
}

func (s *timedStore) Write(v *session.Session) error {
	i := s.t.begin("session.write", "", 0)
	defer s.t.end(i)
	return s.Store.Write(v)
}

func (s *timedStore) Delete(id string) error {
	i := s.t.begin("session.write", "", 0)
	defer s.t.end(i)
	return s.Store.Delete(id)
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children's spans cover.
func selfTimes(spans []span) []time.Duration {
	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.id] = i
	}
	kids := make(map[int][]int)
	for i, s := range spans {
		if p, ok := idx[s.parent]; ok && s.parent != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].start < spans[ch[b]].start })
		covered := time.Duration(0)
		curS, curE := time.Duration(-1), time.Duration(-1)
		for _, c := range ch {
			cs, ce := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if ce <= cs {
				continue
			}
			if cs > curE {
				covered += curE - curS
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		covered += curE - curS
		out[i] = s.end - s.start - covered
	}
	return out
}

// layerMeans is the traced run's per-request mean cost of each layer.
type layerMeans struct {
	requests                  int
	client, clientSelf, route float64
	front, war, entity        float64
	opAll, opRead, opWrite    float64
	sessRead, sessWrite       float64
	sessOps, hops             float64
}

// attribute folds spans into per-request layer means. took maps each
// request id to its client-observed duration; requests without spans
// are left out.
func attribute(spans []span, took map[int64]time.Duration) layerMeans {
	self := selfTimes(spans)
	type acc struct {
		root, route, front, war, op, entity, sr, sw float64
		sessOps, hops                               float64
		class                                       string
	}
	per := map[int64]*acc{}
	for i, s := range spans {
		a := per[s.req]
		if a == nil {
			a = &acc{class: "read"}
			per[s.req] = a
		}
		us := float64(self[i]) / 1e3
		if s.parent == 0 {
			a.root += float64(s.end-s.start) / 1e3
		}
		switch s.name {
		case "fleet.route":
			a.route += us
		case "httpfront":
			a.front += us
		case "core.war":
			a.war += us
			a.hops++
		case "ebid.op":
			a.op += us
			a.hops++
			a.class = s.class
		case "ebid.entity":
			a.entity += us
			a.hops++
		case "session.read":
			a.sr += us
			a.sessOps++
		case "session.write":
			a.sw += us
			a.sessOps++
		}
	}
	var m layerMeans
	var nRead, nWrite int
	for req, a := range per {
		d, ok := took[req]
		if !ok {
			continue
		}
		m.requests++
		c := float64(d) / 1e3
		m.client += c
		m.clientSelf += c - a.root
		m.route += a.route
		m.front += a.front
		m.war += a.war
		m.opAll += a.op
		m.entity += a.entity
		m.sessRead += a.sr
		m.sessWrite += a.sw
		m.sessOps += a.sessOps
		m.hops += a.hops
		if a.class == "write" {
			m.opWrite += a.op
			nWrite++
		} else {
			m.opRead += a.op
			nRead++
		}
	}
	if m.requests == 0 {
		return m
	}
	n := float64(m.requests)
	for _, p := range []*float64{&m.client, &m.clientSelf, &m.route, &m.front, &m.war, &m.opAll,
		&m.entity, &m.sessRead, &m.sessWrite, &m.sessOps, &m.hops} {
		*p /= n
	}
	if nRead > 0 {
		m.opRead /= float64(nRead)
	}
	if nWrite > 0 {
		m.opWrite /= float64(nWrite)
	}
	return m
}

// inproc is the in-process assembly of the workload's topology built
// from the packages' public constructors: db.New + ebid.LoadDataset, a
// timed session store, ebid.New with the tracing interceptor, and
// httpfront on loopback listeners; proxied workloads add fleet.NewRouter
// over those listeners. Each backend has its own database, built the way
// ebid-server builds it: behind ebid-proxy, which always gives its
// backends WAL files, the WAL mirrors to a file.
type inproc struct {
	apps     []*ebid.App
	handlers []http.Handler // untimed httpfront handlers
	backends []string       // backend base URLs
	base     string         // what the generator targets
	router   *fleet.Router
	servers  []*http.Server
	walDir   string
	walFiles []*os.File
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
	return srv, "http://" + ln.Addr().String(), nil
}

// loadDatabases builds one loaded database per backend, concurrently as
// the fleet's processes do.
func (p *inproc) loadDatabases(w *Workload, n int, workDir string) ([]*db.DB, error) {
	if w.Backends > 0 {
		var err error
		if p.walDir, err = os.MkdirTemp(workDir, "traced-wal-"); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			f, err := os.Create(filepath.Join(p.walDir, fmt.Sprintf("node%d.wal", i)))
			if err != nil {
				return nil, err
			}
			p.walFiles = append(p.walFiles, f)
		}
	}
	dbs := make([]*db.DB, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range dbs {
		var wal *db.WAL
		if p.walFiles != nil {
			wal = db.NewWALWithSink(p.walFiles[i])
		}
		dbs[i] = db.New(wal)
		cfg := ebid.DefaultDataset()
		cfg.Users, cfg.Items = int(w.Users), int(w.Items)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ebid.LoadDataset(dbs[i], cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
	}
	return dbs, nil
}

func buildInproc(w *Workload, t *tracer, workDir string) (*inproc, error) {
	p := &inproc{}
	n := max(w.Backends, 1)
	dbs, err := p.loadDatabases(w, n, workDir)
	if err != nil {
		p.close()
		return nil, err
	}
	var fbs []*fleet.Backend
	for i, database := range dbs {
		app, err := ebid.New(database, &timedStore{Store: session.NewFastS(), t: t}, nil)
		if err != nil {
			p.close()
			return nil, err
		}
		app.Server.Use(t.interceptor())
		front := httpfront.New(app)
		front.Node = fmt.Sprintf("node%d", i)
		h := front.Handler()
		srv, u, err := listen(t.wrap("httpfront", h))
		if err != nil {
			p.close()
			return nil, err
		}
		p.apps = append(p.apps, app)
		p.handlers = append(p.handlers, h)
		p.servers = append(p.servers, srv)
		p.backends = append(p.backends, u)
		fbs = append(fbs, &fleet.Backend{Name: front.Node, URL: u})
	}
	p.base = p.backends[0]
	if w.Backends > 0 {
		p.router = fleet.NewRouter(cluster.LeastLoadedPolicy{}, fbs, 0)
		p.router.Start()
		srv, u, err := listen(t.wrap("fleet.route", p.router))
		if err != nil {
			p.close()
			return nil, err
		}
		p.servers = append(p.servers, srv)
		p.base = u
	}
	return p, nil
}

func (p *inproc) close() {
	if p.router != nil {
		p.router.Stop()
	}
	for _, s := range p.servers {
		s.Close()
	}
	for _, f := range p.walFiles {
		f.Close()
	}
	if p.walDir != "" {
		os.RemoveAll(p.walDir)
	}
}

// tracedWindow is how long each in-process open-loop run lasts.
const tracedWindow = 3 * time.Second

// traced runs the in-process assembly untraced and then traced at the
// workload's rate, folds the spans into per-layer metrics, and runs the
// ladder.
func traced(w *Workload, seed int64, workDir string, rep *report) error {
	t := &tracer{epoch: time.Now()}
	p, err := buildInproc(w, t, workDir)
	if err != nil {
		return err
	}
	defer p.close()

	// pass warms the assembly and runs it at the workload's rate, traced
	// or not, and returns the median time from send to last byte. Each
	// pass draws a fresh population from the seed, so both send the same
	// requests after the same warm-up. One connection keeps one request
	// in flight, which the span stack needs; queueing behind it is left
	// out so tracing overhead is not amplified by it.
	pass := func(trace bool) (*gen, float64) {
		pop := newPopulation(w.newSource(seed), w.VirtualUsers)
		warm(w, p.base, pop, 1)
		g := &gen{base: p.base, rate: w.RateRPS, conns: 1, pop: pop, drain: 5 * time.Second}
		if trace {
			g.traceID = new(atomic.Int64)
			t.on.Store(true)
			defer t.on.Store(false)
		}
		g.n = int(w.RateRPS * tracedWindow.Seconds())
		g.start = time.Now().Add(10 * time.Millisecond)
		var took []float64
		for _, r := range g.run() {
			if r.ok {
				took = append(took, r.done.Sub(r.sent).Seconds()*1e3)
			}
		}
		return g, median(took)
	}
	_, p50Plain := pass(false)
	g, p50Traced := pass(true)
	if t.mixed {
		rep.problem("traced run: spans of two requests interleaved")
	}
	took := map[int64]time.Duration{}
	for _, e := range g.exchanges {
		took[e.id] = e.took
	}
	m := attribute(t.spans, took)
	if m.requests == 0 {
		return fmt.Errorf("traced run recorded no requests")
	}
	parts := []struct {
		name string
		us   float64
	}{
		{"http.client_self_us", m.clientSelf},
		{"fleet.route_self_us", m.route},
		{"httpfront.self_us", m.front},
		{"core.war_self_us", m.war},
		{"ebid.op_self_us", m.opAll},
		{"ebid.entity_us", m.entity},
		{"session.read_us", m.sessRead},
		{"session.write_us", m.sessWrite},
	}
	sum := 0.0
	for _, x := range parts {
		sum += x.us
	}
	if d := sum - m.client; d > 0.01*m.client || d < -0.01*m.client {
		rep.problem("traced run: layer self times sum to %.2f µs, client mean is %.2f µs", sum, m.client)
	}
	rep.add("http.client_self_us", m.clientSelf, "us")
	rep.add("fleet.route_self_us", m.route, "us")
	rep.add("httpfront.self_us", m.front, "us")
	rep.add("core.war_self_us", m.war, "us")
	rep.add("ebid.op_self_us.read", m.opRead, "us")
	rep.add("ebid.op_self_us.write", m.opWrite, "us")
	rep.add("ebid.entity_us", m.entity, "us")
	rep.add("session.read_us", m.sessRead, "us")
	rep.add("session.write_us", m.sessWrite, "us")
	rep.add("session.ops_per_req", m.sessOps, "count")
	rep.add("core.hops_per_req", m.hops, "count")
	rep.add("trace.client_mean_us", m.client, "us")
	rep.add("trace.requests", float64(m.requests), "count")
	overhead := 0.0
	if p50Plain > 0 {
		overhead = p50Traced/p50Plain - 1
	}
	rep.add("trace.overhead_frac", overhead, "ratio")
	rep.Table = append(rep.Table, fmt.Sprintf("%-22s %10s %8s", "layer (traced, mean)", "us/req", "share"))
	for _, x := range parts {
		rep.Table = append(rep.Table, fmt.Sprintf("%-22s %10.2f %7.1f%%", x.name, x.us, 100*x.us/m.client))
	}
	rep.Table = append(rep.Table, fmt.Sprintf("%-22s %10.2f %7.1f%%", "client-observed mean", m.client, 100.0))

	// The assembly's router polls its backends; stop it so that work
	// does not land in the ladder's rungs.
	if p.router != nil {
		p.router.Stop()
	}
	return ladder(w, seed, p, rep)
}

func printLayerTable(rep *report) {
	for _, line := range rep.Table {
		fmt.Println("   " + line)
	}
}
