package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/cookiejar"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ebid"
	"repro/internal/fleet"
)

// --------------------------------- Fleet routing over real processes

// FleetExecRun is one routing discipline's outcome against a live
// multi-process fleet, measured from the client side of real sockets.
type FleetExecRun struct {
	Policy        string
	P50, P95, P99 time.Duration
	GoodOps       int64
	BadOps        int64
	Shed          int64
	Relogins      int64
	Estab5xx      int64
	// PerBackend counts requests served per node (from the router).
	PerBackend map[string]int64
	// KillDowntime is how long the SIGKILLed backend was gone before
	// the supervisor had its next incarnation ready (routed phase only).
	KillDowntime time.Duration
	LostSessions int64
}

// FleetExecResult is the process-mode rerun of the fleet figure
// (scenarios/fleet.toml and fleet-roundrobin.toml): the same comparison
// — static round-robin vs queue-aware routing + shedding with a
// degraded replica — but over ebid-server OS processes behind the
// reverse proxy, with a SIGKILL + supervised respawn injected mid-run in
// the routed phase.
type FleetExecResult struct {
	Backends     int
	DegradedNode string
	Degrade      time.Duration
	Clients      int
	Duration     time.Duration

	RoundRobin FleetExecRun
	Routed     FleetExecRun
}

// FigureFleetExec runs the experiment against real processes spawned
// from the ebid-server binary at bin. Quick mode shortens the phases to
// a few seconds.
func FigureFleetExec(o Options, bin string) (*FleetExecResult, error) {
	clients, phase := 40, 20*time.Second
	if o.Quick {
		clients, phase = 16, 4*time.Second
	}
	const nBackends = 3
	degrade := 25 * time.Millisecond

	res := &FleetExecResult{
		Backends:     nBackends,
		DegradedNode: "node0",
		Degrade:      degrade,
		Clients:      clients,
		Duration:     phase,
	}

	walDir, err := os.MkdirTemp("", "fleet-exec-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)

	ports, err := freePorts(nBackends)
	if err != nil {
		return nil, err
	}
	sup := fleet.New(nil)
	defer sup.Stop()
	backs := make([]*fleet.Backend, nBackends)
	for i := 0; i < nBackends; i++ {
		name := fmt.Sprintf("node%d", i)
		url := fmt.Sprintf("http://127.0.0.1:%d", ports[i])
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-node", name,
			"-wal", filepath.Join(walDir, name+".wal"),
			"-users", "60", "-items", "200",
			"-drain-timeout", "3s",
		}
		if i == 0 {
			args = append(args, "-degrade", degrade.String())
		}
		spec := fleet.ChildSpec{
			Name: name, Path: bin, Args: args,
			ReadyURL: url + "/healthz",
			Stdout:   devNull(), Stderr: devNull(),
		}
		if err := sup.Add(spec); err != nil {
			return nil, err
		}
		backs[i] = &fleet.Backend{Name: name, URL: url}
	}
	if err := waitAllReady(sup, nBackends, 20*time.Second); err != nil {
		return nil, err
	}

	res.RoundRobin = runFleetExec(backs, sup, cluster.NewRoundRobin(), clients, phase, "")
	res.Routed = runFleetExec(backs, sup,
		&cluster.SheddingPolicy{Inner: cluster.LeastLoadedPolicy{}, QueueWatermark: 16},
		clients, phase, "node1")
	return res, nil
}

func devNull() *os.File {
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return nil
	}
	return f
}

// freePorts reserves n distinct ephemeral ports and releases them for
// the children to bind. The window between release and re-bind is a
// benign race in practice (nothing else binds on this host mid-test).
func freePorts(n int) ([]int, error) {
	out := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		out[i] = l.Addr().(*net.TCPAddr).Port
	}
	for _, l := range listeners {
		l.Close()
	}
	return out, nil
}

func waitAllReady(sup *fleet.Supervisor, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ready := 0
		for _, st := range sup.Status() {
			if st.Ready {
				ready++
			}
		}
		if ready == n {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("experiments: fleet not ready after %v", timeout)
}

// runFleetExec measures one policy phase. When killNode is non-empty,
// that backend is SIGKILLed a third of the way in — the phase then also
// measures the supervisor's respawn and the router's failover.
func runFleetExec(backs []*fleet.Backend, sup *fleet.Supervisor,
	policy cluster.RoutingPolicy, clients int, phase time.Duration, killNode string) FleetExecRun {

	// Fresh Backend values per phase: counters and affinity start clean.
	phaseBacks := make([]*fleet.Backend, len(backs))
	for i, b := range backs {
		phaseBacks[i] = &fleet.Backend{Name: b.Name, URL: b.URL}
	}
	router := fleet.NewRouter(policy, phaseBacks, 100*time.Millisecond)
	router.Start()
	defer router.Stop()
	proxy := &http.Server{Handler: router}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic("experiments: " + err.Error())
	}
	go proxy.Serve(ln)
	defer proxy.Close()
	base := fmt.Sprintf("http://127.0.0.1:%d", ln.Addr().(*net.TCPAddr).Port)

	run := FleetExecRun{Policy: policy.Name(), PerBackend: map[string]int64{}}
	var mu sync.Mutex
	var lats []time.Duration
	var good, bad, shed, relogins, estab5xx atomic.Int64

	deadline := time.Now().Add(phase)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			driveFleetClient(id, base, deadline, &mu, &lats, &good, &bad, &shed, &relogins, &estab5xx)
		}(c)
	}

	if killNode != "" {
		time.Sleep(phase / 3)
		if err := sup.Kill(killNode); err == nil {
			start := time.Now()
			for time.Now().Before(deadline) {
				if st := statusOf(sup, killNode); st != nil && st.Ready && st.Gen >= 2 {
					run.KillDowntime = time.Since(start)
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	wg.Wait()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	run.P50, run.P95, run.P99 = q(0.50), q(0.95), q(0.99)
	run.GoodOps, run.BadOps = good.Load(), bad.Load()
	run.Shed, run.Relogins, run.Estab5xx = shed.Load(), relogins.Load(), estab5xx.Load()
	st := router.Status()
	run.LostSessions = st["lost_sessions"].(int64)
	for _, b := range phaseBacks {
		run.PerBackend[b.Name] = b.CompletedOps()
	}
	return run
}

func statusOf(sup *fleet.Supervisor, name string) *fleet.ChildStatus {
	for _, st := range sup.Status() {
		if st.Name == name {
			return &st
		}
	}
	return nil
}

// driveFleetClient is a minimal crash-only client: session loop with
// re-login on 401 and Retry-After honored on 503.
func driveFleetClient(id int, base string, deadline time.Time,
	mu *sync.Mutex, lats *[]time.Duration,
	good, bad, shed, relogins, estab5xx *atomic.Int64) {

	rng := rand.New(rand.NewSource(int64(id) + 1))
	jar, _ := cookiejar.New(nil)
	hc := &http.Client{Jar: jar, Timeout: 10 * time.Second}
	established := false
	curUser := int64(1)

	do := func(op, query string) {
		url := base + "/ebid/" + op
		if query != "" {
			url += "?" + query
		}
		for attempt := 0; attempt < 3; attempt++ {
			t0 := time.Now()
			resp, err := hc.Get(url)
			if err != nil {
				bad.Add(1)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			el := time.Since(t0)
			switch {
			case resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "":
				shed.Add(1)
				time.Sleep(50 * time.Millisecond) // compressed Retry-After for experiment time
				continue
			case resp.StatusCode == http.StatusUnauthorized:
				relogins.Add(1)
				established = false
				if op == ebid.Authenticate {
					bad.Add(1)
					return
				}
				if r2, err2 := hc.Get(base + "/ebid/" + ebid.Authenticate + fmt.Sprintf("?user=%d", curUser)); err2 == nil {
					_, _ = io.Copy(io.Discard, r2.Body)
					r2.Body.Close()
					if r2.StatusCode == http.StatusOK {
						established = true
						continue
					}
				}
				bad.Add(1)
				return
			case resp.StatusCode >= 500:
				if established {
					estab5xx.Add(1)
				}
				bad.Add(1)
				return
			case resp.StatusCode == http.StatusOK:
				good.Add(1)
				mu.Lock()
				*lats = append(*lats, el)
				mu.Unlock()
				return
			default:
				bad.Add(1)
				return
			}
		}
	}

	for time.Now().Before(deadline) {
		curUser = 1 + rng.Int63n(60)
		do(ebid.Authenticate, fmt.Sprintf("user=%d", curUser))
		established = true
		for i := 0; i < 4 && time.Now().Before(deadline); i++ {
			switch rng.Intn(3) {
			case 0:
				do(ebid.ViewItem, fmt.Sprintf("item=%d", 1+rng.Int63n(200)))
			case 1:
				do(ebid.BrowseCategories, "")
			case 2:
				do(ebid.AboutMe, "")
			}
		}
		do(ebid.OpLogout, "")
		established = false
	}
}

// String renders the process-fleet comparison.
func (r *FleetExecResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet routing over OS processes: %d ebid-server children behind the reverse proxy\n", r.Backends)
	fmt.Fprintf(&b, "(%s degraded by %v per op; %d clients, %v per phase; SIGKILL + respawn injected in the routed phase)\n\n",
		r.DegradedNode, r.Degrade, r.Clients, r.Duration)
	fmt.Fprintf(&b, "%-18s %9s %9s %9s %8s %6s %6s %9s %9s %6s\n",
		"policy", "p50", "p95", "p99", "good", "shed", "401s", "estab5xx", "downtime", "lost")
	for _, run := range []FleetExecRun{r.RoundRobin, r.Routed} {
		down := "-"
		if run.KillDowntime > 0 {
			down = run.KillDowntime.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-18s %9s %9s %9s %8d %6d %6d %9d %9s %6d\n",
			run.Policy,
			run.P50.Round(time.Millisecond), run.P95.Round(time.Millisecond), run.P99.Round(time.Millisecond),
			run.GoodOps, run.Shed, run.Relogins, run.Estab5xx, down, run.LostSessions)
	}
	var names []string
	for n := range r.Routed.PerBackend {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "\nrouted-phase per-backend completions:")
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%d", n, r.Routed.PerBackend[n])
	}
	fmt.Fprintf(&b, "\n")
	if r.Routed.Estab5xx == 0 && r.RoundRobin.Estab5xx == 0 {
		fmt.Fprintf(&b, "no established session saw a 5xx in either phase — process death surfaced only as 401 re-logins (%d+%d)\n",
			r.RoundRobin.Relogins, r.Routed.Relogins)
	}
	return b.String()
}
