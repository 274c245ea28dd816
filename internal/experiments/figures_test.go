package experiments_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// The extension figures are defined by their scenario specs; these
// tests run each figure's specs (an external test package, because
// internal/scenario imports this one) and assert its invariants on the
// spec outcomes.

// runFigure runs a spec-backed figure in quick mode and requires every
// spec to meet its own [assert] verdict.
func runFigure(t *testing.T, id string) *scenario.FigureRun {
	t.Helper()
	f, ok := scenario.FigureByID(id)
	if !ok {
		t.Fatalf("no spec-backed figure %q", id)
	}
	dir := filepath.Join("..", "..", "scenarios")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("scenarios dir missing: %v", err)
	}
	r, err := scenario.RunFigure(dir, f, experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("figure specs missed their verdicts:\n%s", r)
	}
	return r
}

func TestBrickCrashZeroSessionLoss(t *testing.T) {
	r := runFigure(t, "brickcrash")
	o := r.Outcomes[0]
	crash, ok := o.Event("brick-crash")
	if !ok || crash.Err != "" {
		t.Fatalf("brick crash did not fire: %+v", o.Events)
	}
	if crash.Sessions == 0 || crash.Entries == 0 {
		t.Fatalf("vacuous run: %d sessions, victim held %d entries", crash.Sessions, crash.Entries)
	}
	if o.LostSessions != 0 {
		t.Fatalf("lost %d sessions to a single brick crash, want 0 (N=%d, W=%d)",
			o.LostSessions, o.Replicas, o.WriteQuorum)
	}
	if o.FailuresDelta != 0 {
		t.Fatalf("brick crash surfaced %d client-visible failures, want 0", o.FailuresDelta)
	}
	if o.BrickRestarts != 1 {
		t.Fatalf("brick restarts = %d, want the dead brick restarted exactly once", o.BrickRestarts)
	}
	if crash.EntriesAtEnd == 0 {
		t.Fatal("re-replication restored nothing into the restarted brick")
	}
	a, ok := o.Recovery("ssm-bricks")
	if !ok {
		t.Fatalf("recovery manager never acted on the bricks: %+v", o.Recoveries)
	}
	if a.At <= crash.At {
		t.Fatalf("detection at %v not after crash at %v", a.At, crash.At)
	}
	if o.HumanPages != 0 {
		t.Fatalf("recovery paged a human %d times", o.HumanPages)
	}
	t.Log("\n" + r.String())
}

func TestFigureElasticZeroLossUnderLoad(t *testing.T) {
	r := runFigure(t, "elastic")
	o := r.Outcomes[0]
	add, okAdd := o.Event("ring:add")
	remove, okRemove := o.Event("ring:remove")
	if !okAdd || !okRemove {
		t.Fatalf("ring events missing: %+v", o.Events)
	}
	if add.Sessions == 0 || remove.Sessions == 0 {
		t.Fatalf("vacuous run: %d sessions at add, %d at remove", add.Sessions, remove.Sessions)
	}
	// RemoveShard refuses while a migration is in flight, so an applied
	// remove proves the add converged first.
	if add.Err != "" || remove.Err != "" || !o.Converged {
		t.Fatalf("migration did not converge: add err %q, remove err %q, converged at end %v",
			add.Err, remove.Err, o.Converged)
	}
	if moved := remove.Migrated - add.Migrated; moved == 0 || add.EntriesAtEnd == 0 {
		t.Fatalf("add-shard migration vacuous: moved %d, new shard holds %d", moved, add.EntriesAtEnd)
	}
	if moved := o.MigratedEntries - remove.Migrated; moved == 0 || o.RetiredBricks != 3 {
		t.Fatalf("drain vacuous: moved %d, retired %d bricks", moved, o.RetiredBricks)
	}
	if o.LostSessions != 0 {
		t.Fatalf("lost %d sessions across the ring changes, want 0 (%+v, %d at end)", o.LostSessions, o.Events, o.LostAtEnd)
	}
	if o.FailuresDelta != 0 {
		t.Fatalf("elastic resize surfaced %d client-visible failures, want 0", o.FailuresDelta)
	}
	if o.RingVersion != 3 {
		t.Fatalf("ring generation = %d, want 3 (initial + add + remove)", o.RingVersion)
	}
	t.Log("\n" + r.String())
}

func TestFigureAutoscaleClosedLoopResize(t *testing.T) {
	r := runFigure(t, "autoscale")
	s, o := r.Specs[0], r.Outcomes[0]
	adds, removes, errs, add, remove := scenario.Resizes(o)
	if adds != 1 || removes != 1 {
		t.Fatalf("resizes = %d add / %d remove, want exactly 1 each (actions must come from the controller)", adds, removes)
	}
	if errs != 0 {
		t.Fatalf("%d resize actions hit actuator errors", errs)
	}
	if len(o.Events) != 2 || o.Events[0].Kind != "surge:join" || o.Events[1].Kind != "surge:leave" {
		t.Fatalf("the spec schedules only the surge; ring changes must come from the controller: %+v", o.Events)
	}
	if o.RingVersion != 3 {
		t.Fatalf("ring generation = %d, want 3 (initial + controller add + controller remove)", o.RingVersion)
	}
	if !o.Converged {
		t.Fatal("migration did not converge after the controller's resizes")
	}
	if add.AvgLoad <= float64(s.Plane.HighWater) {
		t.Fatalf("add fired at %.0f sessions/shard, below the %d high water", add.AvgLoad, s.Plane.HighWater)
	}
	if remove.AvgLoad >= float64(s.Plane.LowWater) {
		t.Fatalf("remove fired at %.0f sessions/shard, above the %d low water", remove.AvgLoad, s.Plane.LowWater)
	}
	if o.LostSessions != 0 {
		t.Fatalf("lost %d sessions across the controller-driven resizes, want 0", o.LostSessions)
	}
	if o.FailuresDelta != 0 {
		t.Fatalf("autoscaling surfaced %d client-visible failures, want 0", o.FailuresDelta)
	}
	if o.MigratedEntries == 0 {
		t.Fatal("vacuous run: the resizes migrated nothing")
	}
	// The pacer went to full throttle at least once (the post-drain ring
	// is idle) and stayed within its bounds.
	if o.PacerMaxBudget != 1024 {
		t.Fatalf("pacer max budget = %d, want 1024 (idle system should migrate at full throttle)", o.PacerMaxBudget)
	}
	if o.PacerMinBudget < 16 {
		t.Fatalf("pacer budget fell below its floor: %d", o.PacerMinBudget)
	}
	t.Log("\n" + r.String())
}

func TestFigureFleetRoutingBeatsRoundRobin(t *testing.T) {
	r := runFigure(t, "fleet")
	rr, routed := r.Outcomes[0], r.Outcomes[1]
	// The static balancer drowns the degraded node; queue-aware routing
	// plus shedding must hold the tail at least 2x lower.
	if rr.P99 < 2*routed.P99 {
		t.Fatalf("p99: round-robin %v vs routed %v, want ≥2x separation", rr.P99, routed.P99)
	}
	rrDeg, _ := scenario.Queues(r.Specs[0], rr)
	routedDeg, _ := scenario.Queues(r.Specs[1], routed)
	if rrDeg < 4*routedDeg {
		t.Fatalf("degraded-node queue: rr %d vs routed %d, want ≥4x separation", rrDeg, routedDeg)
	}
	// Admission control actually engaged — and only in the shed run.
	if routed.Shed == 0 {
		t.Fatal("shedding policy never shed under fleet-wide overload")
	}
	if rr.Shed != 0 {
		t.Fatalf("round-robin run shed %d requests", rr.Shed)
	}
	// Overload slows the fleet; it must not eat state.
	if rr.LostSessions != 0 || routed.LostSessions != 0 {
		t.Fatalf("lost sessions: rr=%d routed=%d, want 0", rr.LostSessions, routed.LostSessions)
	}
	// Shedding trades rejected logins for served traffic: goodput must
	// not fall below the collapsing baseline.
	if routed.GoodOps < rr.GoodOps {
		t.Fatalf("goodput: routed %d < round-robin %d", routed.GoodOps, rr.GoodOps)
	}
	// The sampled comparison detector rode the live stream cleanly.
	if rr.SampledChecks == 0 || routed.SampledChecks == 0 {
		t.Fatalf("comparison sampler never ran: %d/%d checks", rr.SampledChecks, routed.SampledChecks)
	}
	if rr.Discrepancies != 0 || routed.Discrepancies != 0 {
		t.Fatalf("fault-free run flagged discrepancies: %d/%d", rr.Discrepancies, routed.Discrepancies)
	}
	t.Log("\n" + r.String())
}

func TestFigureBrickSlowRoutingHoldsTheTail(t *testing.T) {
	r := runFigure(t, "brickslow")
	routed, unrouted := r.Outcomes[0], r.Outcomes[1]
	for _, o := range r.Outcomes {
		if slow, ok := o.Event("brick-slow"); !ok || slow.Err != "" {
			t.Fatalf("%s: brick-slow did not fire: %+v", o.Name, o.Events)
		}
	}
	// Fail-stutter, not fail-stop: nobody fails in either mode.
	if routed.FailuresDelta != 0 || unrouted.FailuresDelta != 0 {
		t.Fatalf("failures = %d routed / %d unrouted, want 0", routed.FailuresDelta, unrouted.FailuresDelta)
	}
	// With routing, the degraded brick serves nothing and the tail holds.
	if routed.SlowServedReads != 0 {
		t.Fatalf("routing on still served %d reads from the slow brick", routed.SlowServedReads)
	}
	if routed.SlowBypasses == 0 {
		t.Fatal("vacuous run: routing never actually bypassed the slow brick")
	}
	if growth := routed.Measured.P99 - routed.Warm.P99; growth > 50*time.Millisecond {
		t.Fatalf("p99 grew %v under degradation despite routing", growth)
	}
	// Without routing, the slow brick serves its shard and the tail
	// absorbs the stutter.
	if unrouted.SlowServedReads == 0 {
		t.Fatal("routing off never read from the slow brick")
	}
	if gap := unrouted.Measured.P99 - routed.Measured.P99; gap < 100*time.Millisecond {
		t.Fatalf("unrouted p99 only %v above routed, want the fail-stutter penalty to show", gap)
	}
	t.Log("\n" + r.String())
}
