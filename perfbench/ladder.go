package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/fleet"
	"repro/internal/httpfront"
)

// ladderBudget bounds each rung: it stops after this long or
// ladderMaxOps requests, whichever comes first.
const (
	ladderBudget = 700 * time.Millisecond
	ladderMaxOps = 20000
)

// ladderReq is one request of the workload's stream, with the inputs
// every rung shares decoded in advance.
type ladderReq struct {
	vu       int
	newVisit bool
	op       string
	path     string
	args     *ebid.OpArgs
	table    string // the row the request reads first, for db.get
	key      int64
}

// rung is one ladder step: the workload's request stream sent through a
// layer's entry point by one goroutine. prepare builds the rung's
// per-request inputs before the clock starts, so the timed loop holds
// only the call into the layer; do sends request i.
type rung struct {
	name    string
	prepare func(reqs []ladderReq)
	do      func(i int, r *ladderReq) error
}

func ladder(w *Workload, seed int64, p *inproc, rep *report) error {
	reqs := make([]ladderReq, ladderMaxOps)
	src := w.newSource(seed)
	for k := range reqs {
		vu, op, q, nv := src.next(k)
		r := &reqs[k]
		r.vu, r.newVisit, r.op, r.path = vu, nv, op, "/ebid/"+op
		if q != "" {
			r.path += "?" + q
		}
		vals, _ := url.ParseQuery(q)
		r.args = &ebid.OpArgs{}
		for k, v := range vals {
			r.args.SetString(k, v[0])
		}
		r.table, r.key = rowOf(vals)
	}
	vus := 0
	for _, r := range reqs {
		vus = max(vus, r.vu+1)
	}

	app, h := p.apps[0], p.handlers[0]
	lr := fleet.NewRouter(cluster.LeastLoadedPolicy{}, []*fleet.Backend{{Name: "node0", URL: p.backends[0]}}, 0)
	defer lr.Stop()
	rsrv, routerURL, err := listen(lr)
	if err != nil {
		return err
	}
	defer rsrv.Close()
	sock := &conn{addr: strings.TrimPrefix(p.backends[0], "http://")}
	defer sock.close()
	prox := &conn{addr: strings.TrimPrefix(routerURL, "http://")}
	defer prox.close()
	// jar holds each user's session cookie for the socket rungs, in
	// buffers sized before the clock starts.
	jar := make([][]byte, vus)
	emptyJar := func([]ladderReq) {
		for i := range jar {
			jar[i] = make([]byte, 0, 64)
		}
	}
	viaConn := func(c *conn) func(int, *ladderReq) error {
		return func(_ int, r *ladderReq) error {
			if r.newVisit {
				jar[r.vu] = jar[r.vu][:0]
			}
			_, _, _, ck, err := c.get(r.path, jar[r.vu], 0)
			if ck != nil {
				jar[r.vu] = append(jar[r.vu][:0], ck...)
			}
			return err
		}
	}

	var sessions []string
	var hreqs []*http.Request
	cookies := make([]string, vus) // httpfront.handler: each user's Cookie header
	rec := &sink{h: http.Header{}}
	rungs := []rung{
		{"db.get", nil, func(_ int, r *ladderReq) error {
			tx, err := app.DB.Begin()
			if err != nil {
				return err
			}
			_, err = tx.Get(r.table, r.key)
			cerr := tx.Commit()
			if cerr == nil {
				tx.Recycle() // as the entity layer does after its own commit
			}
			if err == nil {
				err = cerr
			}
			return err
		}},
		{"ebid.execute", func(reqs []ladderReq) {
			// Each user's visit is one session, as httpfront's cookie
			// would make it.
			visits := make([]int, vus)
			sessions = make([]string, len(reqs))
			for i, r := range reqs {
				if r.newVisit {
					visits[r.vu]++
				}
				sessions[i] = fmt.Sprintf("ladder-%d-%d", r.vu, visits[r.vu])
			}
		}, func(i int, r *ladderReq) error {
			// A pooled call, handed back after use: the entry point as
			// the repository's own invoke benchmarks drive it.
			call := core.NewCall(r.op, sessions[i], r.args, httpfront.DefaultRequestTTL)
			_, err := app.Execute(context.Background(), call)
			call.Release()
			return err
		}},
		{"httpfront.handler", func(reqs []ladderReq) {
			hreqs = make([]*http.Request, len(reqs))
			for i, r := range reqs {
				hreqs[i] = httptest.NewRequest(http.MethodGet, r.path, nil)
				hreqs[i].Header["Cookie"] = make([]string, 1)
			}
		}, func(i int, r *ladderReq) error {
			if r.newVisit {
				cookies[r.vu] = ""
			}
			req := hreqs[i]
			req.Header["Cookie"][0] = cookies[r.vu]
			rec.reset()
			h.ServeHTTP(rec, req)
			for _, c := range rec.h["Set-Cookie"] {
				if strings.HasPrefix(c, sessionCookie+"=") {
					cookies[r.vu], _, _ = strings.Cut(c, ";")
				}
			}
			return nil
		}},
		{"http.socket", emptyJar, viaConn(sock)},
		{"fleet.proxy", func(reqs []ladderReq) {
			emptyJar(reqs)
			lr.Start()
		}, viaConn(prox)},
	}
	ns := make([]float64, len(rungs))
	for i, r := range rungs {
		if r.prepare != nil {
			r.prepare(reqs)
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		began := time.Now()
		n := 0
		for ; n < len(reqs) && (n < 100 || time.Since(began) < ladderBudget); n++ {
			_ = r.do(n, &reqs[n]) // failures (e.g. a lapsed ladder session) still cost their time
		}
		el := time.Since(began)
		runtime.ReadMemStats(&ms1)
		sessions, hreqs = nil, nil
		ns[i] = float64(el.Nanoseconds()) / float64(n)
		rep.add("ladder."+r.name+".ns_per_op", ns[i], "ns")
		rep.add("ladder."+r.name+".allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "count")
	}
	rep.Table = append(rep.Table, fmt.Sprintf("%-22s %10s %8s", "ladder rung", "ns/op", "of next"))
	for i, r := range rungs {
		share := "-"
		if i+1 < len(rungs) {
			s := ns[i] / ns[i+1]
			rep.add("ladder."+r.name+".share_of_next", s, "ratio")
			share = fmt.Sprintf("%7.1f%%", 100*s)
		}
		rep.Table = append(rep.Table, fmt.Sprintf("%-22s %10.0f %8s", r.name, ns[i], share))
	}
	return nil
}

// rowOf maps a request to the row it reads first, for the db.get rung.
func rowOf(vals url.Values) (string, int64) {
	for _, kv := range []struct{ key, table string }{
		{"item", ebid.TblItems}, {"user", ebid.TblUsers},
		{"category", ebid.TblCategories}, {"region", ebid.TblRegions},
	} {
		if v := vals.Get(kv.key); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				return kv.table, n
			}
		}
	}
	return ebid.TblCategories, 1
}

// sink is a reusable http.ResponseWriter for the httpfront.handler rung:
// it keeps the headers and status and discards the body, so the rung
// counts no writer of its own per request.
type sink struct {
	h      http.Header
	status int
}

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sink) Write(b []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return len(b), nil
}

func (s *sink) reset() {
	clear(s.h)
	s.status = 0
}
