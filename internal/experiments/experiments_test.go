package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/ebid"
)

var quick = Options{Quick: true}

func TestTable1MixShape(t *testing.T) {
	r := Table1(quick)
	if r.Total < 10000 {
		t.Fatalf("only %d requests", r.Total)
	}
	want := map[string]float64{
		ebid.CatReadOnlyDB: 0.32, ebid.CatSessionInit: 0.23, ebid.CatStatic: 0.12,
		ebid.CatSearch: 0.12, ebid.CatSessionUpdate: 0.11, ebid.CatDBUpdate: 0.10,
	}
	for cat, target := range want {
		if math.Abs(r.Share[cat]-target) > 0.05 {
			t.Errorf("%s = %.3f, want %.2f ± 0.05", cat, r.Share[cat], target)
		}
	}
	if !strings.Contains(r.String(), "Table 1") {
		t.Fatal("String() malformed")
	}
}

func TestTable2MatrixMatchesPaper(t *testing.T) {
	r := Table2(quick)
	if len(r.Rows) != 26 {
		t.Fatalf("rows = %d, want 26", len(r.Rows))
	}
	mismatches := 0
	for _, row := range r.Rows {
		if !row.Match {
			mismatches++
			t.Logf("MISMATCH: %s/%s observed %q paper %q", row.Fault, row.Mode, row.ObservedCure, row.PaperCure)
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d rows deviate from Table 2", mismatches)
	}
}

func TestTable3WithinPaperRange(t *testing.T) {
	r := Table3(quick)
	if len(r.Rows) != 25 { // 21 session/entity comps + EntityGroup + WAR + eBid + JVM
		t.Fatalf("rows = %d, want 25", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Paper == 0 {
			continue
		}
		ratio := float64(row.Total) / float64(row.Paper)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: total %v vs paper %v", row.Component, row.Total, row.Paper)
		}
	}
	// Ordering: EJB µRB << app restart << process restart.
	var entityGroup, app, jvm time.Duration
	for _, row := range r.Rows {
		switch row.Component {
		case "EntityGroup":
			entityGroup = row.Total
		case "eBid":
			app = row.Total
		case "JVM restart":
			jvm = row.Total
		}
	}
	if !(entityGroup < app && app < jvm) {
		t.Fatalf("ordering broken: group=%v app=%v jvm=%v", entityGroup, app, jvm)
	}
}

func TestFigure1OrderOfMagnitude(t *testing.T) {
	r := Figure1(quick)
	if len(r.MicroActions) == 0 || len(r.RestartActions) == 0 {
		t.Fatalf("recovery actions: µRB=%d restart=%d", len(r.MicroActions), len(r.RestartActions))
	}
	if r.MicroFailedReqs == 0 {
		t.Fatal("µRB run failed zero requests — model too forgiving")
	}
	ratio := float64(r.RestartFailedReqs) / float64(r.MicroFailedReqs)
	if ratio < 8 {
		t.Fatalf("restart/µRB failed-request ratio = %.1f, want ≥8 (order of magnitude)", ratio)
	}
	t.Logf("failed: µRB=%d restart=%d (%.0fx); per-recovery µRB=%.0f restart=%.0f",
		r.MicroFailedReqs, r.RestartFailedReqs, ratio, r.MicroAvgPerRecovery, r.RestartAvgPerRecovery)
}

func TestFigure2MicroDisruptionIsPartial(t *testing.T) {
	r := Figure2(quick)
	if r.MicroTotalDown > 0 {
		t.Fatalf("µRB run had %v of total outage; paper: partial disruption only", r.MicroTotalDown)
	}
	if r.RestartTotalDown == 0 {
		t.Fatal("restart run showed no total outage; expected the restart window down")
	}
}

func TestFigure3ShapeHolds(t *testing.T) {
	r := Figure3(quick)
	for _, row := range r.Rows {
		if row.MicroFailed >= row.RestartFailed {
			t.Fatalf("%d nodes: µRB failed %d ≥ restart %d", row.Nodes, row.MicroFailed, row.RestartFailed)
		}
		if row.RestartSessions == 0 {
			t.Fatalf("%d nodes: no sessions failed over under restart", row.Nodes)
		}
	}
	// Relative failure percentage declines with cluster size.
	if len(r.Rows) >= 2 {
		first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
		if last.RestartPct >= first.RestartPct {
			t.Fatalf("restart %% did not decline with cluster size: %.2f -> %.2f",
				first.RestartPct, last.RestartPct)
		}
	}
	t.Log("\n" + r.String())
}

func TestFigure4ShapeHolds(t *testing.T) {
	r := Figure4(quick)
	for _, row := range r.Rows {
		if row.RestartOver8s < row.MicroOver8s {
			t.Fatalf("%d nodes: restart over-8s %d < µRB %d", row.Nodes, row.RestartOver8s, row.MicroOver8s)
		}
	}
	// Two-node restart must show heavy slow-request counts; µRB nearly none.
	first := r.Rows[0]
	if first.RestartOver8s == 0 {
		t.Fatal("2-node restart failover produced no >8s requests; overload model broken")
	}
	if first.MicroOver8s > first.RestartOver8s/10 {
		t.Fatalf("µRB over-8s %d not an order below restart %d", first.MicroOver8s, first.RestartOver8s)
	}
	t.Log("\n" + r.String())
}

func TestFigure5LeftCrossover(t *testing.T) {
	r := Figure5Left(quick)
	if r.CrossoverTdet < 5*time.Second {
		t.Fatalf("crossover Tdet = %v, want ≥5s (paper: 53.5s)", r.CrossoverTdet)
	}
	// Failed requests grow with Tdet for µRB.
	if r.Micro[len(r.Micro)-1].Failed <= r.Micro[0].Failed {
		t.Fatal("µRB failures did not grow with detection delay")
	}
	t.Log("\n" + r.String())
}

func TestFigure5RightTolerance(t *testing.T) {
	r := Figure5Right(78, 3917)
	if r.ToleratedFPRate < 0.95 {
		t.Fatalf("tolerated FP rate = %.3f, want ≥0.95 (paper: 0.98)", r.ToleratedFPRate)
	}
	// Monotone growth of failures with FP rate.
	for i := 1; i < len(r.MicroFailed); i++ {
		if r.MicroFailed[i] <= r.MicroFailed[i-1] {
			t.Fatal("µRB curve not monotone")
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	r := Figure6(quick)
	if r.MicroFailed >= r.RestartFailed {
		t.Fatalf("µRB rejuvenation failed %d ≥ restart %d", r.MicroFailed, r.RestartFailed)
	}
	if r.MicroRejuvenations == 0 {
		t.Fatal("no microrejuvenation episodes happened")
	}
	if r.RestartCount == 0 {
		t.Fatal("baseline performed no restart rejuvenations")
	}
	if !r.GoodputNeverZero {
		t.Fatal("good Taw hit zero during microrejuvenation")
	}
	t.Log("\n" + r.String())
}

func TestFigure3SharedClusterKeepsShape(t *testing.T) {
	// Figures 3/4 rerun on a cross-node SSM brick cluster: failover still
	// happens, and µRB still beats the full restart, but the shared store
	// means redirected sessions survive the node's recovery.
	r := Figure3(Options{Quick: true, ClusterStore: "ssm-cluster"})
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		if row.MicroFailed > row.RestartFailed {
			t.Fatalf("%d nodes: µRB failed %d > restart %d", row.Nodes, row.MicroFailed, row.RestartFailed)
		}
		if row.RestartSessions == 0 {
			t.Fatalf("%d nodes: no sessions failed over under restart", row.Nodes)
		}
	}
	t.Log("\n" + r.String())
}

func TestTable5PerformanceShape(t *testing.T) {
	r := Table5(quick)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Throughput within a few percent across configs.
	base := r.Rows[0].Throughput
	for _, row := range r.Rows {
		if math.Abs(row.Throughput-base)/base > 0.05 {
			t.Fatalf("throughput varies >5%%: %v", r.Rows)
		}
	}
	// SSM latency 70-90% above FastS.
	fasts, ssm := r.Rows[1].MeanLatency, r.Rows[3].MeanLatency
	ratio := float64(ssm) / float64(fasts)
	if ratio < 1.4 || ratio > 2.2 {
		t.Fatalf("SSM/FastS latency ratio = %.2f, want ~1.7-1.9", ratio)
	}
	t.Log("\n" + r.String())
}

func TestTable6RetryMasking(t *testing.T) {
	r := Table6(quick)
	for _, row := range r.Rows {
		if row.Retry > row.NoRetry {
			t.Fatalf("%s: retry %f > no-retry %f", row.Component, row.Retry, row.NoRetry)
		}
		if row.DelayRetry > row.Retry {
			t.Fatalf("%s: delay+retry %f > retry %f", row.Component, row.DelayRetry, row.Retry)
		}
	}
	t.Log("\n" + r.String())
}

func TestSection61Budgets(t *testing.T) {
	fig1 := &Figure1Result{MicroAvgPerRecovery: 78, RestartAvgPerRecovery: 3917}
	fig3 := &Figure3Result{Rows: []Figure3Row{{Nodes: 2, MicroFailed: 162}}}
	r := Section61(quick, fig1, fig3)
	if r.BudgetRestart >= r.BudgetFailoverMicro || r.BudgetFailoverMicro >= r.BudgetNoFailoverMicro {
		t.Fatalf("budget ordering broken: %d / %d / %d",
			r.BudgetRestart, r.BudgetFailoverMicro, r.BudgetNoFailoverMicro)
	}
	if r.BudgetRestart < 5 || r.BudgetRestart > 50 {
		t.Fatalf("restart budget = %d, want ~13 (paper: 23)", r.BudgetRestart)
	}
	t.Log("\n" + r.String())
}

func TestAblationDelayTradeoff(t *testing.T) {
	r := AblationDelay(quick, "")
	if len(r.Rows) < 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// More grace must not increase failures (monotone non-increasing
	// within noise), and the effective recovery window must grow.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.FailedPerRB > first.FailedPerRB+0.5 {
		t.Fatalf("failures grew with delay: %.1f -> %.1f", first.FailedPerRB, last.FailedPerRB)
	}
	if last.EffectiveRecovery <= first.EffectiveRecovery {
		t.Fatal("effective recovery did not grow with delay")
	}
	t.Log("\n" + r.String())
}
