package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/detect"
	"repro/internal/ebid"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/store/session"
	"repro/internal/workload"
)

// Check is one evaluated invariant.
type Check struct {
	Name string
	OK   bool
	Got  string
	Want string
}

// Outcome is the structured result of one scenario run: the measured
// counters plus every invariant verdict.
type Outcome struct {
	Name       string
	ExpectFail bool
	// Passed reports whether every asserted invariant held. A campaign
	// inverts it for ExpectFail scenarios.
	Passed bool
	Checks []Check

	P50, P95, P99 time.Duration
	Over8s        int64
	GoodOps       int64
	BadOps        int64
	// FailuresDelta is BadOps growth after the warmup baseline.
	FailuresDelta int64
	// Goodput is the action-weighted throughput over the last quarter of
	// the measured window (ops/s).
	Goodput float64
	// Warm and Measured are successful-op response times completing
	// before and after the end of warmup.
	Warm, Measured Latency
	// Populations is each client population's size: the base load, then
	// every surge in spec order.
	Populations []int
	// LostSessions sums every zero-loss sweep: each event's Lost plus
	// LostAtEnd, the sweep over every stored session once the run ends.
	LostSessions  int
	LostAtEnd     int
	HumanPages    int
	Shed          int64
	Rejuvenations int64
	// MaxQueue is the deepest queue the fleet probe saw, per node.
	MaxQueue []int
	// Events records every scheduled event in firing order.
	Events []Event
	// Recoveries is the recovery manager's action log.
	Recoveries []RecoveryAction
	// Resizes is the autoscaler's action log.
	Resizes []controlplane.ResizeAction
	// PacerMinBudget/PacerMaxBudget are the migration budgets the pacer
	// actually used; PacerBackoffs counts its latency backoffs.
	PacerMinBudget, PacerMaxBudget int
	PacerBackoffs                  int64
	// SampledChecks counts comparison-detector replays; Discrepancies
	// the mismatches they published.
	SampledChecks, Discrepancies int64

	// Brick ring: the initial geometry, then end-of-run state.
	Shards, Replicas, WriteQuorum int
	BrickRestarts                 int
	RingVersion                   int
	Converged                     bool
	MigratedEntries               int
	RetiredBricks                 int
	// SlowServedReads/SlowBypasses count client reads served by, and
	// routed around, degraded bricks (sweep reads excluded).
	SlowServedReads, SlowBypasses int
	ActiveFaults                  int
	Sessions                      int
	Seed                          int64
}

// Latency summarizes a set of successful-op response times.
type Latency struct {
	P50, P95, P99, Mean time.Duration
}

// Event is one scheduled event as it fired: a fault injection, a ring
// change, or a client surge joining or leaving.
type Event struct {
	At time.Duration
	// Kind is the fault kind token, ring:add, ring:remove, surge:join or
	// surge:leave.
	Kind string
	// Target is the resolved victim: a component, brick or session name,
	// or "shard N" for ring events; empty for surges.
	Target string
	// Sessions is the live brick-ring population just before the event.
	Sessions int
	// Entries/EntriesAtEnd are the target brick's or shard's stored
	// entries just before the event and at the end of the run.
	Entries, EntriesAtEnd int
	// Migrated is the migrator's cumulative entry count just before.
	Migrated int
	// Lost counts pre-event sessions unreadable right after the event.
	Lost int
	// Err is why the event could not be applied ("" when it was).
	Err string
}

// RecoveryAction is one recovery-manager action.
type RecoveryAction struct {
	At       time.Duration
	Target   string
	Duration time.Duration
}

// queueWatch is a plane controller recording the deepest queue the fleet
// probe saw per node.
type queueWatch struct {
	index map[string]int
	max   []int
}

func (q *queueWatch) Name() string { return "queue-watch" }
func (q *queueWatch) OnSignal(s controlplane.Signal) {
	if i, ok := q.index[s.Node]; ok && s.Kind == controlplane.SignalNodeLoad && s.Load.Queue > q.max[i] {
		q.max[i] = s.Load.Queue
	}
}
func (q *queueWatch) Tick(time.Duration) func() { return nil }
func (q *queueWatch) Status() any               { return q.max }

// Run interprets one scenario spec onto a fresh harness environment and
// evaluates its invariants. Spec errors (bad store names, impossible
// quorums) come back as errors; invariant violations come back inside a
// non-nil Outcome with Passed == false.
func Run(spec *Spec, o experiments.Options) (*Outcome, error) {
	if spec.Seed != nil && !o.SeedSet {
		o.Seed, o.SeedSet = *spec.Seed, true
	}

	c := spec.Cluster
	hcfg := experiments.HarnessConfig{
		Nodes:       c.Nodes,
		Store:       c.Store,
		Shards:      c.Shards,
		Replicas:    c.Replicas,
		WriteQuorum: c.WriteQuorum,
		LeaseTTL:    c.LeaseTTL,
		Node: cluster.NodeConfig{
			Workers:         c.Workers,
			CongestionScale: c.CongestionScale,
		},
	}
	if c.DegradedNode >= 0 {
		deg, w := c.DegradedNode, c.DegradedWorkers
		hcfg.PerNode = func(i int, cfg *cluster.NodeConfig) {
			if i == deg {
				cfg.Workers = w
			}
		}
	}
	h, err := experiments.NewHarness(o, hcfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	out := &Outcome{Name: spec.Name, ExpectFail: spec.ExpectFail, Seed: o.SeedValue()}
	if h.Bricks != nil {
		h.Bricks.SetSlowReadRouting(c.SlowReadRouting)
		cfg := h.Bricks.Config()
		out.Shards, out.Replicas, out.WriteQuorum = cfg.Shards, cfg.Replicas, cfg.WriteQuorum
	}

	switch c.Routing {
	case "", RoutingRoundRobin:
		// balancer default
	case RoutingLeastLoaded:
		h.LB.SetPolicy(cluster.LeastLoadedPolicy{})
	case RoutingShedLeast:
		h.LB.SetPolicy(&cluster.SheddingPolicy{Inner: cluster.LeastLoadedPolicy{}, QueueWatermark: c.ShedWatermark})
	case RoutingShedRoundRobin:
		h.LB.SetPolicy(&cluster.SheddingPolicy{Inner: cluster.NewRoundRobin(), QueueWatermark: c.ShedWatermark})
	}

	// Control plane: the single observe–decide–act loop every scenario
	// runs, whether or not any controller is attached.
	p := spec.Plane
	tick := p.Tick
	if tick == 0 {
		tick = time.Second
	}
	pcfg := controlplane.Config{Clock: h.Kernel.Now, Fleet: h.LB}
	// The O(sessions) ring probe feeds only the autoscaler (shard load)
	// and the recovery controller (dead bricks).
	if h.Bricks != nil && (p.Recovery || p.Autoscale) {
		pcfg.Cluster = h.Bricks
	}
	plane := controlplane.New(pcfg)
	qw := &queueWatch{index: map[string]int{}, max: make([]int, len(h.Nodes))}
	for i, n := range h.Nodes {
		qw.index[n.Name] = i
	}
	plane.Use(qw)

	var rm *recovery.Manager
	if p.Recovery {
		rm = recovery.NewManager(h.Kernel, h.Nodes[0], recovery.Config{Threshold: float64(p.RecoveryThreshold)})
		if h.Bricks != nil {
			rm.Bricks = h.Bricks
		}
		rm.NotifyHuman = func(reason string) { out.HumanPages++ }
		plane.Use(controlplane.NewRecoveryController(rm))
		if c.Nodes > 1 {
			controlplane.BindRecoveryLifecycle(plane, rm, h.Nodes[0].Name)
		}
	}

	var fleet *controlplane.FleetController
	if c.Nodes > 1 || p.RejuvenateEvery > 0 {
		fleet = controlplane.NewFleetController(h.LB, controlplane.FleetConfig{
			RejuvenateEvery: o.Scaled(p.RejuvenateEvery),
			DrainTimeout:    p.DrainTimeout,
		})
		plane.Use(fleet)
	}

	var scaler *controlplane.Autoscaler
	if p.Autoscale {
		scaler = controlplane.NewAutoscaler(h.Bricks, controlplane.AutoscalerConfig{
			MinShards: p.AutoscaleMin, MaxShards: p.AutoscaleMax,
			HighWater: float64(p.HighWater), LowWater: float64(p.LowWater),
			Sustain: p.Sustain, Cooldown: o.Scaled(p.Cooldown),
			WarmUp: o.Scaled(p.ResizeWarmup),
		})
		plane.Use(scaler)
	}
	var pacer *controlplane.MigrationPacer
	if p.Pacer {
		pacer = controlplane.NewMigrationPacer(h.Bricks, controlplane.PacerConfig{
			TargetP95: p.PacerTargetP95,
		})
		plane.Use(pacer)
	}
	h.PumpPlane(plane, tick)

	// Migration pump: a pacer owns the migrator when present; otherwise
	// ring events and autoscaling need a fixed-rate pump or RemoveShard
	// drains would never converge.
	if h.Bricks != nil && !p.Pacer {
		every, batch := p.MigrateEvery, p.MigrateBatch
		if every == 0 && (len(spec.Ring) > 0 || p.Autoscale) {
			every = 50 * time.Millisecond
		}
		if every > 0 {
			if batch == 0 {
				batch = 128
			}
			h.PumpMigration(every, batch)
		}
	}
	if p.ReapEvery > 0 {
		h.PumpReaper(p.ReapEvery)
	}

	// The comparison detector samples the live stream against a
	// known-good instance sharing the database, publishing mismatches as
	// discrepancy signals.
	var frontend workload.Frontend = h.LB
	var sampler *detect.Sampler
	if spec.Detect.SampleEvery > 0 {
		good, err := ebid.New(h.DB, session.NewFastS(), h.Kernel.Now)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: known-good instance: %w", spec.Name, err)
		}
		sampler = &detect.Sampler{
			Comp:  &detect.Comparison{Good: good},
			Every: int64(spec.Detect.SampleEvery),
			OnDiscrepancy: func(op string, v detect.Verdict) {
				plane.ReportDiscrepancy(op, v.Detail)
			},
		}
		frontend = &detect.SampledFrontend{Inner: h.LB, S: sampler}
	}

	// Every op streams onto the bus; successful ones are also kept,
	// split at the end of warmup.
	l := spec.Load
	warmup, run := o.Scaled(l.Warmup), o.Scaled(l.Run)
	var warm, measured []time.Duration
	h.Recorder.SetOnOp(func(op metrics.Op) {
		plane.ObserveOp(op.Latency(), op.OK)
		if !op.OK {
			return
		}
		if op.End < warmup {
			warm = append(warm, op.Latency())
		} else {
			measured = append(measured, op.Latency())
		}
	})
	onFailure := func(clientID int, op string, resp workload.Response) {
		// Session-loss failures after a recovery are knock-on effects of
		// the recovery itself; reporting them would loop the manager.
		if resp.Err != nil && strings.Contains(resp.Err.Error(), "not logged in") {
			return
		}
		// Deferred one kernel step: a recovery fired from inside a plane
		// tick kills in-flight requests, and their failure callbacks must
		// not re-enter the plane while its lock is held.
		h.Kernel.Schedule(0, func() { plane.ReportFailure(op, "client-detector") })
	}

	ev := &events{h: h, out: out}

	// Client populations: the base load plus any surges, ids disjoint.
	baseClients := l.Clients
	if l.ScaleClients {
		baseClients = o.ScaledClients(baseClients)
	}
	wcfg := workload.Config{ThinkMean: l.ThinkMean, StartStagger: l.Stagger}
	base := h.NewEmulator(frontend, baseClients, 0, wcfg)
	base.OnFailure(onFailure)
	emulators := []*workload.Emulator{base}
	out.Populations = []int{baseClients}
	offset := baseClients
	for _, su := range spec.Surges {
		n := su.Clients
		if l.ScaleClients {
			n = o.ScaledClients(n)
		}
		em := h.NewEmulator(frontend, n, offset, wcfg)
		em.OnFailure(onFailure)
		emulators = append(emulators, em)
		out.Populations = append(out.Populations, n)
		offset += n
		ev.schedule(o.Scaled(su.At), "surge:join", nil, func(string) (string, error) {
			em.Start()
			return "", nil
		})
		if su.LeaveAt > 0 {
			ev.schedule(o.Scaled(su.LeaveAt), "surge:leave", nil, func(string) (string, error) {
				em.Drain()
				return "", nil
			})
		}
	}

	// Scheduled fault injections and ring events.
	var active []*faults.ActiveFault
	for i := range spec.Faults {
		f := spec.Faults[i]
		var comp, sid string
		ev.schedule(o.Scaled(f.At), kindToken(f.Kind), func() (string, error) {
			var err error
			comp, sid, err = resolveTarget(h, f)
			if sid != "" {
				return sid, err
			}
			return comp, err
		}, func(target string) (string, error) {
			af, err := injectFault(h, f, comp, sid)
			if err == nil {
				active = append(active, af)
			}
			return target, err
		})
	}
	for i := range spec.Ring {
		r := spec.Ring[i]
		var resolve func() (string, error)
		apply := func(string) (string, error) {
			id, err := h.Bricks.AddShard()
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("shard %d", id), nil
		}
		if r.Action == "remove" {
			id := r.Shard
			resolve = func() (string, error) {
				if !r.shardSet {
					ids := h.Bricks.ShardIDs()
					id = ids[len(ids)-1]
				}
				return fmt.Sprintf("shard %d", id), nil
			}
			apply = func(target string) (string, error) { return target, h.Bricks.RemoveShard(id) }
		}
		ev.schedule(o.Scaled(r.At), "ring:"+r.Action, resolve, apply)
	}

	// Timeline: warmup (baseline probe at its end), measured run, stop,
	// flush, cooldown drain.
	cooldown := l.Cooldown
	if cooldown == 0 {
		cooldown = 30 * time.Second
	}
	var failBase int64
	h.Kernel.Schedule(warmup, func() { failBase = h.Recorder.BadOps() })
	base.Start()
	h.Kernel.RunFor(warmup + run)
	for _, em := range emulators {
		em.Stop()
	}
	for _, em := range emulators {
		em.FlushActions()
	}
	h.Kernel.RunFor(cooldown)

	// Collect.
	lat := h.Recorder.Latencies()
	out.P50, out.P95, out.P99 = lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99)
	out.Warm, out.Measured = summarize(warm), summarize(measured)
	out.Over8s = h.Recorder.OverThreshold()
	out.GoodOps, out.BadOps = h.Recorder.GoodOps(), h.Recorder.BadOps()
	out.FailuresDelta = out.BadOps - failBase
	out.Goodput = h.Recorder.GoodputOver(warmup+run*3/4, warmup+run)
	out.Shed = h.LB.Shed()
	out.MaxQueue = qw.max
	if fleet != nil {
		out.Rejuvenations = fleet.Rejuvenations()
	}
	if rm != nil {
		for _, a := range rm.Actions {
			out.Recoveries = append(out.Recoveries, RecoveryAction{At: a.At, Target: a.Target, Duration: a.Reboot.Duration()})
		}
	}
	if scaler != nil {
		out.Resizes = scaler.Actions
	}
	if pacer != nil {
		st := pacer.Status().(controlplane.PacerStatus)
		out.PacerMinBudget, out.PacerMaxBudget, out.PacerBackoffs = st.MinUsed, st.MaxUsed, st.Backoffs
	}
	if sampler != nil {
		_, out.SampledChecks, _ = sampler.Stats()
		out.Discrepancies = plane.Status().Signals[controlplane.SignalDiscrepancy.String()]
	}
	if h.Bricks != nil {
		out.LostAtEnd = ev.sweep(h.Bricks.SessionIDs())
		for i := range out.Events {
			out.Events[i].EntriesAtEnd = targetEntries(h, out.Events[i].Target)
		}
		out.BrickRestarts = h.BrickRestarts()
		out.RingVersion = int(h.Bricks.RingVersion())
		out.Converged = !h.Bricks.Migrating()
		out.MigratedEntries = h.Bricks.MigratedEntries()
		out.RetiredBricks = len(h.Bricks.RetiredBricks())
		out.SlowServedReads = h.Bricks.SlowServedReads() - ev.sweepServed
		out.SlowBypasses = h.Bricks.SlowBypasses() - ev.sweepBypasses
		out.Sessions = h.Bricks.Len()
	}
	out.LostSessions = out.LostAtEnd
	for _, e := range out.Events {
		out.LostSessions += e.Lost
		if e.Err == "" {
			continue
		}
		// A scenario that cannot fire its event must not pass vacuously.
		ch := Check{Name: e.Kind, Got: e.Err, Want: "applied"}
		if !strings.Contains(e.Kind, ":") {
			ch.Name, ch.Want = "inject:"+e.Kind, "injected"
		}
		out.Checks = append(out.Checks, ch)
	}
	for _, af := range active {
		if af.Active() {
			out.ActiveFaults++
		}
	}

	evaluate(spec, out)
	return out, nil
}

// events fires scheduled events and runs the zero-loss sweep after each.
type events struct {
	h   *experiments.Harness
	out *Outcome
	// Slow-brick reads the sweeps themselves caused, so the outcome's
	// routing counters report client traffic only.
	sweepServed, sweepBypasses int
}

// schedule fires an event at virtual time at. resolve (optional) names
// the target before anything changes; apply performs the event and
// returns the final target name (a new shard's id exists only once it
// is added). The record carries the ring population and the target's
// entries just before the event, and the pre-event sessions unreadable
// right after it.
func (ev *events) schedule(at time.Duration, kind string, resolve func() (string, error), apply func(target string) (string, error)) {
	h := ev.h
	h.Kernel.Schedule(at, func() {
		e := Event{At: h.Kernel.Now(), Kind: kind}
		ids := preEventIDs(h)
		e.Sessions = len(ids)
		var err error
		if resolve != nil {
			e.Target, err = resolve()
		}
		if err == nil {
			e.Entries = targetEntries(h, e.Target)
			if h.Bricks != nil {
				e.Migrated = h.Bricks.MigratedEntries()
			}
			e.Target, err = apply(e.Target)
		}
		if err != nil {
			e.Err = err.Error()
		}
		e.Lost = ev.sweep(ids)
		ev.out.Events = append(ev.out.Events, e)
	})
}

// sweep counts sessions from ids that can no longer be read — the
// zero-session-loss probe run after every event and at the end.
func (ev *events) sweep(ids []string) int {
	cl := ev.h.Bricks
	if cl == nil {
		return 0
	}
	served, bypasses := cl.SlowServedReads(), cl.SlowBypasses()
	lost := 0
	for _, id := range ids {
		if _, err := cl.Read(id); err != nil {
			lost++
		}
	}
	ev.sweepServed += cl.SlowServedReads() - served
	ev.sweepBypasses += cl.SlowBypasses() - bypasses
	return lost
}

// targetEntries counts the entries an event target holds: one brick's,
// or every live and retired brick of a "shard N" target. Other targets
// (components, sessions) hold none.
func targetEntries(h *experiments.Harness, target string) int {
	if h.Bricks == nil || target == "" {
		return 0
	}
	shard := -1
	if _, err := fmt.Sscanf(target, "shard %d", &shard); err != nil {
		shard = -1
	}
	n := 0
	for _, b := range append(h.Bricks.Bricks(), h.Bricks.RetiredBricks()...) {
		if b.Name() == target || b.Shard() == shard {
			n += b.Len()
		}
	}
	return n
}

// resolveTarget resolves spec-level sentinels ("@heaviest" victim brick,
// "@live" session) against run-time state and names the fault's target.
func resolveTarget(h *experiments.Harness, f FaultSpec) (comp, sid string, err error) {
	comp, sid = f.Component, f.Session
	if comp == "@heaviest" {
		if h.Bricks == nil {
			return "", "", fmt.Errorf("@heaviest needs the brick cluster")
		}
		bricks := h.Bricks.Bricks()
		victim := bricks[0]
		for _, b := range bricks {
			if b.Up() && b.Len() > victim.Len() {
				victim = b
			}
		}
		comp = victim.Name()
	}
	if sid == "@live" {
		ids := preEventIDs(h)
		if len(ids) == 0 {
			return "", "", fmt.Errorf("@live: no live sessions to corrupt")
		}
		sid = ids[0]
	}
	return comp, sid, nil
}

// injectFault fires the injector with resolved targets.
func injectFault(h *experiments.Harness, f FaultSpec, comp, sid string) (*faults.ActiveFault, error) {
	return h.Injectors[f.Node].Inject(faults.Spec{
		Kind:        f.Kind,
		Component:   comp,
		Mode:        f.Mode,
		LeakPerCall: f.LeakPerCall,
		SessionID:   sid,
		Table:       f.Table,
		RowKey:      f.RowKey,
		Column:      f.Column,
	})
}

// preEventIDs snapshots the brick cluster's live session ids, sorted so
// sentinel resolution is deterministic.
func preEventIDs(h *experiments.Harness) []string {
	if h.Bricks == nil {
		return nil
	}
	ids := h.Bricks.SessionIDs()
	sort.Strings(ids)
	return ids
}

// summarize reduces successful-op response times to their quantiles
// and mean.
func summarize(ds []time.Duration) Latency {
	if len(ds) == 0 {
		return Latency{}
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return Latency{
		P50:  metrics.ExactQuantile(ds, 0.50),
		P95:  metrics.ExactQuantile(ds, 0.95),
		P99:  metrics.ExactQuantile(ds, 0.99),
		Mean: sum / time.Duration(len(ds)),
	}
}

// evaluate turns the [assert] table into Checks and the overall verdict.
func evaluate(spec *Spec, out *Outcome) {
	a := spec.Assert
	add := func(name string, ok bool, got, want string) {
		out.Checks = append(out.Checks, Check{Name: name, OK: ok, Got: got, Want: want})
	}
	if a.LostSessions != nil {
		add("lost_sessions", out.LostSessions == *a.LostSessions,
			fmt.Sprint(out.LostSessions), fmt.Sprint(*a.LostSessions))
	}
	if a.HumanPages != nil {
		add("human_pages", out.HumanPages == *a.HumanPages,
			fmt.Sprint(out.HumanPages), fmt.Sprint(*a.HumanPages))
	}
	if a.MaxP99 > 0 {
		add("max_p99", out.P99 <= a.MaxP99, out.P99.String(), "<= "+a.MaxP99.String())
	}
	if a.MaxFailures != nil {
		add("max_failures", out.FailuresDelta <= *a.MaxFailures,
			fmt.Sprint(out.FailuresDelta), fmt.Sprintf("<= %d", *a.MaxFailures))
	}
	if a.MinGoodput > 0 {
		add("min_goodput", out.Goodput >= a.MinGoodput,
			fmt.Sprintf("%.2f", out.Goodput), fmt.Sprintf(">= %.2f", a.MinGoodput))
	}
	if a.MinGoodOps > 0 {
		add("min_good_ops", out.GoodOps >= a.MinGoodOps,
			fmt.Sprint(out.GoodOps), fmt.Sprintf(">= %d", a.MinGoodOps))
	}
	if a.Converged != nil {
		add("converged", out.Converged == *a.Converged,
			fmt.Sprint(out.Converged), fmt.Sprint(*a.Converged))
	}
	if a.RingVersion != nil {
		add("ring_version", out.RingVersion == *a.RingVersion,
			fmt.Sprint(out.RingVersion), fmt.Sprint(*a.RingVersion))
	}
	if a.MinBrickRestarts > 0 {
		add("min_brick_restarts", out.BrickRestarts >= a.MinBrickRestarts,
			fmt.Sprint(out.BrickRestarts), fmt.Sprintf(">= %d", a.MinBrickRestarts))
	}
	if a.MinRejuvenations > 0 {
		add("min_rejuvenations", out.Rejuvenations >= int64(a.MinRejuvenations),
			fmt.Sprint(out.Rejuvenations), fmt.Sprintf(">= %d", a.MinRejuvenations))
	}
	if a.MinShed != nil {
		add("min_shed", out.Shed >= *a.MinShed,
			fmt.Sprint(out.Shed), fmt.Sprintf(">= %d", *a.MinShed))
	}
	if a.MaxShed != nil {
		add("max_shed", out.Shed <= *a.MaxShed,
			fmt.Sprint(out.Shed), fmt.Sprintf("<= %d", *a.MaxShed))
	}
	if a.MaxOver8s != nil {
		add("max_over_8s", out.Over8s <= *a.MaxOver8s,
			fmt.Sprint(out.Over8s), fmt.Sprintf("<= %d", *a.MaxOver8s))
	}
	if a.FaultsCleared != nil {
		add("faults_cleared", (out.ActiveFaults == 0) == *a.FaultsCleared,
			fmt.Sprintf("%d active", out.ActiveFaults), fmt.Sprintf("cleared=%t", *a.FaultsCleared))
	}
	out.Passed = true
	for _, ch := range out.Checks {
		if !ch.OK {
			out.Passed = false
		}
	}
}

// String renders the outcome as a short report.
func (o *Outcome) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !o.Passed {
		verdict = "FAIL"
	}
	if o.ExpectFail {
		verdict += " (negative control: expected FAIL)"
	}
	fmt.Fprintf(&b, "scenario %s: %s (seed %d)\n", o.Name, verdict, o.Seed)
	fmt.Fprintf(&b, "  ops good/bad %d/%d (Δfail %d)  p50/p95/p99 %v/%v/%v  goodput %.2f ops/s\n",
		o.GoodOps, o.BadOps, o.FailuresDelta,
		o.P50.Round(time.Millisecond), o.P95.Round(time.Millisecond), o.P99.Round(time.Millisecond), o.Goodput)
	if o.Sessions > 0 || o.RingVersion > 0 {
		fmt.Fprintf(&b, "  bricks: %d sessions, ring v%d, converged=%t, restarts %d, lost %d\n",
			o.Sessions, o.RingVersion, o.Converged, o.BrickRestarts, o.LostSessions)
	}
	if o.Shed > 0 || o.Rejuvenations > 0 || o.HumanPages > 0 {
		fmt.Fprintf(&b, "  shed %d, rejuvenations %d, human pages %d\n", o.Shed, o.Rejuvenations, o.HumanPages)
	}
	if o.SampledChecks > 0 {
		fmt.Fprintf(&b, "  comparison detector: %d replays, %d discrepancies\n", o.SampledChecks, o.Discrepancies)
	}
	for _, e := range o.Events {
		fmt.Fprintf(&b, "  event t=%v %s %s: %d sessions before, %d lost", e.At.Round(time.Second), e.Kind, e.Target, e.Sessions, e.Lost)
		if e.Err != "" {
			fmt.Fprintf(&b, " (error: %s)", e.Err)
		}
		b.WriteByte('\n')
	}
	for _, c := range o.Checks {
		mark := "ok"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%4s] %-18s got %s want %s\n", mark, c.Name, c.Got, c.Want)
	}
	return strings.TrimRight(b.String(), "\n")
}
