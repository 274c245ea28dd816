package scenario

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/controlplane"
	"repro/internal/experiments"
	"repro/internal/store/session"
)

// Figure is one extension figure defined by shipped scenario specs: the
// specs it runs, in order, and the renderer that prints its table from
// their outcomes.
type Figure struct {
	// ID is the figure's experiments.Catalog id (cmd/experiments -only).
	ID    string
	Title string
	// Specs names the scenario files (without .toml) the figure runs.
	Specs  []string
	render func(specs []*Spec, outs []*Outcome) string
}

var figures = []Figure{
	{"brickcrash", "Brick crash (extension): SSM brick cluster under load",
		[]string{"brickcrash"}, renderBrickCrash},
	{"elastic", "Elastic ring (extension): shard add/remove under load",
		[]string{"elastic"}, renderElastic},
	{"autoscale", "Autoscale (extension): control-plane-driven resize under load",
		[]string{"autoscale"}, renderAutoscale},
	{"brickslow", "Brick slow (extension): fail-stutter latency with/without slow-replica routing",
		[]string{"brickslow", "brickslow-unrouted"}, renderBrickSlow},
	{"fleet", "Fleet routing (extension): shedding + least-loaded vs static round-robin",
		[]string{"fleet-roundrobin", "fleet"}, renderFleet},
}

// Figures lists the spec-backed figures in catalog order.
func Figures() []Figure { return append([]Figure(nil), figures...) }

// FigureByID finds a spec-backed figure.
func FigureByID(id string) (Figure, bool) {
	for _, f := range figures {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// FigureRun is one figure's specs and their outcomes, in Figure.Specs
// order.
type FigureRun struct {
	Figure   Figure
	Specs    []*Spec
	Outcomes []*Outcome
}

// RunFigure loads f's specs from dir and runs each one.
func RunFigure(dir string, f Figure, o experiments.Options) (*FigureRun, error) {
	r := &FigureRun{Figure: f}
	for _, name := range f.Specs {
		s, err := LoadFile(filepath.Join(dir, name+".toml"))
		if err != nil {
			return nil, err
		}
		out, err := Run(s, o)
		if err != nil {
			return nil, err
		}
		r.Specs = append(r.Specs, s)
		r.Outcomes = append(r.Outcomes, out)
	}
	return r, nil
}

// Passed reports whether every spec met its campaign verdict.
func (r *FigureRun) Passed() bool {
	for _, o := range r.Outcomes {
		if o.Passed == o.ExpectFail {
			return false
		}
	}
	return true
}

// String renders the figure's table, followed by any spec that missed
// its verdict.
func (r *FigureRun) String() string {
	var b strings.Builder
	b.WriteString(r.Figure.render(r.Specs, r.Outcomes))
	for _, o := range r.Outcomes {
		if o.Passed == o.ExpectFail {
			fmt.Fprintf(&b, "scenario %s missed its verdict: %s\n", o.Name, summarizeChecks(o))
		}
	}
	return b.String()
}

// Event returns the first event of a kind.
func (o *Outcome) Event(kind string) (Event, bool) {
	for _, e := range o.Events {
		if e.Kind == kind {
			return e, true
		}
	}
	return Event{}, false
}

// Recovery returns the first recovery action on a target.
func (o *Outcome) Recovery(target string) (RecoveryAction, bool) {
	for _, a := range o.Recoveries {
		if a.Target == target {
			return a, true
		}
	}
	return RecoveryAction{}, false
}

func nodes(s *Spec) int {
	if s.Cluster.Nodes > 0 {
		return s.Cluster.Nodes
	}
	return 1
}

func renderBrickCrash(_ []*Spec, outs []*Outcome) string {
	o := outs[0]
	var b strings.Builder
	fmt.Fprintf(&b, "Brick crash under load (extension): %d×%d brick cluster, write quorum W=%d\n",
		o.Shards, o.Replicas, o.WriteQuorum)
	crash, _ := o.Event("brick-crash")
	fmt.Fprintf(&b, "crashed %s at t=%v holding %d entries (%d live sessions cluster-wide)\n",
		crash.Target, crash.At.Round(time.Second), crash.Entries, crash.Sessions)
	fmt.Fprintf(&b, "sessions lost to the crash:        %d (claim: 0)\n", o.LostSessions)
	fmt.Fprintf(&b, "client-visible failures in window: %d (claim: 0; %d requests total)\n",
		o.FailuresDelta, o.GoodOps+o.BadOps)
	if a, ok := o.Recovery("ssm-bricks"); ok {
		fmt.Fprintf(&b, "RM restarted the brick: detected t=%v, re-replicated %d entries by t=%v\n",
			a.At.Round(time.Second), crash.EntriesAtEnd, (a.At + a.Duration).Round(time.Second))
	} else {
		fmt.Fprintf(&b, "brick was NOT restarted (detection failed?)\n")
	}
	return b.String()
}

func renderElastic(specs []*Spec, outs []*Outcome) string {
	o := outs[0]
	add, _ := o.Event("ring:add")
	remove, _ := o.Event("ring:remove")
	var b strings.Builder
	fmt.Fprintf(&b, "Elastic SSM ring (extension): %d-node cluster on a shared %d-shard × %d brick ring, W=%d\n",
		nodes(specs[0]), o.Shards, o.Replicas, o.WriteQuorum)
	fmt.Fprintf(&b, "grow:   added %s with %d live sessions; lost at ring change: %d (claim: 0)\n",
		add.Target, add.Sessions, add.Lost)
	fmt.Fprintf(&b, "        migration: %d entries moved before the shrink; new shard holds %d at end\n",
		remove.Migrated-add.Migrated, add.EntriesAtEnd)
	fmt.Fprintf(&b, "shrink: removed %s with %d live sessions; lost at ring change: %d (claim: 0)\n",
		remove.Target, remove.Sessions, remove.Lost)
	fmt.Fprintf(&b, "        drain: %d entries moved, %d bricks retired; converged at end: %v\n",
		o.MigratedEntries-remove.Migrated, o.RetiredBricks, o.Converged)
	fmt.Fprintf(&b, "sessions unreadable at end: %d (claim: 0)\n", o.LostAtEnd)
	fmt.Fprintf(&b, "client-visible failures across both ring changes: %d (claim: 0; %d requests total)\n",
		o.FailuresDelta, o.GoodOps+o.BadOps)
	fmt.Fprintf(&b, "ring generation after both changes: %d\n", o.RingVersion)
	return b.String()
}

// Resizes splits an autoscaler log into counts, actuator errors, and
// the last applied add and remove.
func Resizes(o *Outcome) (adds, removes, errs int, add, remove controlplane.ResizeAction) {
	for _, a := range o.Resizes {
		switch {
		case a.Err != "":
			errs++
		case a.Added:
			adds++
			add = a
		default:
			removes++
			remove = a
		}
	}
	return
}

func renderAutoscale(specs []*Spec, outs []*Outcome) string {
	s, o := specs[0], outs[0]
	adds, removes, errs, add, remove := Resizes(o)
	surge := 0
	for _, n := range o.Populations[1:] {
		surge += n
	}
	leave, _ := o.Event("surge:leave")
	var b strings.Builder
	fmt.Fprintf(&b, "Control-plane autoscaling (extension): %d-node cluster on a %d-shard × %d brick ring, W=%d\n",
		nodes(s), o.Shards, o.Replicas, o.WriteQuorum)
	fmt.Fprintf(&b, "watermarks: add above %d sessions/shard, remove below %d; clients %d baseline + %d surge\n",
		s.Plane.HighWater, s.Plane.LowWater, o.Populations[0], surge)
	fmt.Fprintf(&b, "grow:   controller added shard %d at %.0f sessions/shard (~%d sessions); lost after: %d (claim: 0)\n",
		add.Shard, add.AvgLoad, int(add.AvgLoad*float64(o.Shards)), leave.Lost)
	fmt.Fprintf(&b, "shrink: controller removed shard %d at %.0f sessions/shard; lost at end: %d (claim: 0)\n",
		remove.Shard, remove.AvgLoad, o.LostAtEnd)
	fmt.Fprintf(&b, "resizes: %d add / %d remove (errors: %d); ring generation %d; migration converged: %v (%d entries)\n",
		adds, removes, errs, o.RingVersion, o.Converged, o.MigratedEntries)
	fmt.Fprintf(&b, "migration pacer: budget ranged %d..%d entries/step, %d latency backoffs\n",
		o.PacerMinBudget, o.PacerMaxBudget, o.PacerBackoffs)
	fmt.Fprintf(&b, "client-visible failures across both resizes: %d (claim: 0; %d requests total)\n",
		o.FailuresDelta, o.GoodOps+o.BadOps)
	fmt.Fprintf(&b, "sessions at end (post-drain): %d\n", o.Sessions)
	return b.String()
}

func renderBrickSlow(_ []*Spec, outs []*Outcome) string {
	on, off := outs[0], outs[1]
	slow, _ := on.Event("brick-slow")
	var b strings.Builder
	fmt.Fprintf(&b, "Fail-stutter brick (extension): %d×%d brick cluster, W=%d; %s degraded (+%v per stuttered read)\n",
		on.Shards, on.Replicas, on.WriteQuorum, slow.Target, session.SlowBrickPenalty)
	fmt.Fprintf(&b, "%-28s %14s %14s\n", "successful-op latency", "routing on", "routing off")
	row := func(name string, on, off time.Duration) {
		fmt.Fprintf(&b, "%-28s %14v %14v\n", name, on.Round(time.Millisecond), off.Round(time.Millisecond))
	}
	row("p50 before degradation", on.Warm.P50, off.Warm.P50)
	row("p50 while degraded", on.Measured.P50, off.Measured.P50)
	row("p95 before degradation", on.Warm.P95, off.Warm.P95)
	row("p95 while degraded", on.Measured.P95, off.Measured.P95)
	row("p99 before degradation", on.Warm.P99, off.Warm.P99)
	row("p99 while degraded", on.Measured.P99, off.Measured.P99)
	row("mean while degraded", on.Measured.Mean, off.Measured.Mean)
	fmt.Fprintf(&b, "reads served by the slow brick: %d (routing on) vs %d (routing off); bypasses: %d\n",
		on.SlowServedReads, off.SlowServedReads, on.SlowBypasses)
	fmt.Fprintf(&b, "client-visible failures while degraded: %d / %d (fail-stutter, not fail-stop: claim 0 both)\n",
		on.FailuresDelta, off.FailuresDelta)
	return b.String()
}

// Queues splits a fleet outcome's per-node queue high-water marks into
// the degraded node's and the deepest healthy node's.
func Queues(s *Spec, o *Outcome) (degraded, healthy int) {
	for i, q := range o.MaxQueue {
		if i == s.Cluster.DegradedNode {
			degraded = q
		} else if q > healthy {
			healthy = q
		}
	}
	return degraded, healthy
}

func renderFleet(specs []*Spec, outs []*Outcome) string {
	s, rr, routed := specs[1], outs[0], outs[1]
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet routing (extension): %d nodes (node%d degraded to %d/%d workers), %d clients past fleet capacity\n",
		nodes(s), s.Cluster.DegradedNode, s.Cluster.DegradedWorkers, s.Cluster.Workers, routed.Populations[0])
	fmt.Fprintf(&b, "shedding watermark: %d queued/node; comparison detector sampling 1/%d of live reads\n\n",
		s.Cluster.ShedWatermark, s.Detect.SampleEvery)
	fmt.Fprintf(&b, "%-18s %10s %10s %10s %8s %9s %7s %11s %11s %6s\n",
		"policy", "p50", "p95", "p99", ">8s", "good", "shed", "deg-queue", "ok-queue", "lost")
	for i, o := range outs {
		policy := specs[i].Cluster.Routing
		if policy == "" {
			policy = RoutingRoundRobin
		}
		deg, ok := Queues(specs[i], o)
		fmt.Fprintf(&b, "%-18s %10s %10s %10s %8d %9d %7d %11d %11d %6d\n",
			policy,
			o.P50.Round(time.Millisecond), o.P95.Round(time.Millisecond), o.P99.Round(time.Millisecond),
			o.Over8s, o.GoodOps, o.Shed, deg, ok, o.LostSessions)
	}
	fmt.Fprintf(&b, "\ncomparison sampling: %d + %d replays, %d + %d discrepancies\n",
		rr.SampledChecks, routed.SampledChecks, rr.Discrepancies, routed.Discrepancies)
	if routed.P99 > 0 {
		fmt.Fprintf(&b, "p99: %s vs %s — queue-aware routing + shedding holds the tail %.1fx lower under the same overload\n",
			rr.P99.Round(time.Millisecond), routed.P99.Round(time.Millisecond),
			float64(rr.P99)/float64(routed.P99))
	}
	return b.String()
}
