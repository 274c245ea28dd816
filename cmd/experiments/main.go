// Command experiments regenerates every table and figure of the
// microreboot paper's evaluation and prints them in paper-style form,
// with the paper's own numbers alongside for comparison. It is also the
// scenario-campaign runner: -scenario interprets declarative chaos
// specs, -matrix runs the builtin fault × store × routing campaign.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-only table2,figure1,...] [-cluster-store fasts|ssm-cluster]
//	experiments -list
//	experiments [-quick] -scenario <file.toml|dir> [-matrix] [-matrix-out FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	quick := flag.Bool("quick", false, "run shortened experiments (seconds instead of minutes)")
	seed := flag.Int64("seed", 42, "simulation seed")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	clusterStore := flag.String("cluster-store", "fasts",
		"session store shared by the cluster experiments (figures 3/4, section61): fasts or ssm-cluster")
	list := flag.Bool("list", false, "list experiment ids and discovered scenario specs, then exit")
	scenarioPath := flag.String("scenario", "", "run scenario spec(s): a .toml file or a directory of them")
	matrix := flag.Bool("matrix", false, "also run the builtin fault × store × routing scenario matrix")
	matrixOut := flag.String("matrix-out", "", "write the campaign pass/fail matrix as JSON to this file")
	fleetExec := flag.Bool("fleet-exec", false,
		"run the fleet routing experiment over real ebid-server OS processes behind the reverse proxy, then exit")
	fleetBin := flag.String("fleet-bin", "", "ebid-server binary for -fleet-exec (default: look beside this binary, PATH, then go build)")
	flag.Parse()
	switch *clusterStore {
	case "fasts", "ssm", "ssm-cluster":
	default:
		fmt.Fprintf(os.Stderr, "unknown -cluster-store %q (want fasts, ssm or ssm-cluster)\n", *clusterStore)
		os.Exit(2)
	}

	// An explicitly passed -seed pins the seed even when it is zero;
	// otherwise the harness default (42) applies.
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	o := experiments.Options{Quick: *quick, Seed: *seed, SeedSet: seedSet, ClusterStore: *clusterStore}

	if *list {
		listAll()
		return
	}
	if *fleetExec {
		os.Exit(runFleetExec(o, *fleetBin))
	}
	if *scenarioPath != "" || *matrix {
		os.Exit(runScenarios(o, *scenarioPath, *matrix, *matrixOut))
	}
	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }
	failed := false

	start := time.Now()
	var fig1 *experiments.Figure1Result
	var fig3 *experiments.Figure3Result

	if run("table1") {
		section("Table 1")
		fmt.Println(experiments.Table1(o))
	}
	if run("table2") {
		section("Table 2")
		fmt.Println(experiments.Table2(o))
	}
	if run("table3") {
		section("Table 3")
		fmt.Println(experiments.Table3(o))
	}
	if run("figure1") {
		section("Figure 1")
		fig1 = experiments.Figure1(o)
		fmt.Println(fig1)
	}
	if run("figure2") {
		section("Figure 2")
		fmt.Println(experiments.Figure2(o))
	}
	if run("figure3") {
		section("Figure 3")
		fig3 = experiments.Figure3(o)
		fmt.Println(fig3)
	}
	if run("figure4") || run("table4") {
		section("Figure 4 / Table 4")
		fmt.Println(experiments.Figure4(o))
	}
	if run("table5") {
		section("Table 5")
		fmt.Println(experiments.Table5(o))
	}
	if run("table6") {
		section("Table 6")
		fmt.Println(experiments.Table6(o))
	}
	if run("figure5") {
		section("Figure 5")
		fmt.Println(experiments.Figure5Left(o))
		micro, restart := 78.0, 3917.0
		if fig1 != nil && fig1.MicroAvgPerRecovery > 0 {
			micro, restart = fig1.MicroAvgPerRecovery, fig1.RestartAvgPerRecovery
		}
		fmt.Println(experiments.Figure5Right(micro, restart))
	}
	if run("figure6") {
		section("Figure 6")
		fmt.Println(experiments.Figure6(o))
	}
	if run("ablation") {
		section("Ablation (extension): sentinel-to-crash delay")
		fmt.Println(experiments.AblationDelay(o, ""))
	}
	// The extension figures are defined by their scenario specs.
	for _, f := range scenario.Figures() {
		if !run(f.ID) {
			continue
		}
		section(f.Title)
		r, err := scenario.RunFigure("scenarios", f, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(r)
		failed = failed || !r.Passed()
	}
	if run("section61") {
		section("Section 6.1")
		if fig1 == nil {
			fig1 = &experiments.Figure1Result{MicroAvgPerRecovery: 78, RestartAvgPerRecovery: 3917}
		}
		if fig3 == nil {
			fig3 = experiments.Figure3(o)
		}
		fmt.Println(experiments.Section61(o, fig1, fig3))
	}

	fmt.Fprintf(os.Stderr, "all experiments completed in %v\n", time.Since(start).Round(time.Millisecond))
	if failed {
		os.Exit(1)
	}
}

// parseOnly turns the -only list into a set of catalog ids. An id the
// catalog does not know is an error: a typo must not run nothing and
// exit 0.
func parseOnly(list string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, e := range experiments.Catalog() {
		known[e.ID] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.ToLower(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		if !known[id] {
			return nil, fmt.Errorf("-only: unknown experiment id %q (see -list)", id)
		}
		want[id] = true
	}
	return want, nil
}

func section(title string) {
	fmt.Println(strings.Repeat("=", 78))
	fmt.Println("  " + title)
	fmt.Println(strings.Repeat("=", 78))
}

// listAll prints every -only id and every scenario spec discovered under
// ./scenarios, each with its one-line description.
func listAll() {
	fmt.Println("experiments (-only):")
	for _, e := range experiments.Catalog() {
		fmt.Printf("  %-12s %s\n", e.ID, e.Description)
	}
	specs, err := scenario.LoadDir("scenarios")
	if err != nil {
		fmt.Printf("\nscenarios: none discovered (%v)\n", err)
		return
	}
	fmt.Println("\nscenarios (-scenario scenarios/<name>.toml, or -scenario scenarios for all):")
	for _, s := range specs {
		name := s.Name
		if s.ExpectFail {
			name += " (negative control)"
		}
		fmt.Printf("  %-22s %s\n", name, s.Description)
	}
	fmt.Println("\nbuiltin matrix (-matrix):")
	for _, s := range scenario.MatrixSpecs() {
		fmt.Printf("  %-40s %s\n", s.Name, s.Description)
	}
}

// runScenarios runs the requested scenario campaign and returns the
// process exit code.
func runScenarios(o experiments.Options, path string, matrix bool, out string) int {
	var specs []*scenario.Spec
	if path != "" {
		st, err := os.Stat(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if st.IsDir() {
			specs, err = scenario.LoadDir(path)
		} else {
			var s *scenario.Spec
			s, err = scenario.LoadFile(path)
			specs = []*scenario.Spec{s}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	if matrix {
		specs = append(specs, scenario.MatrixSpecs()...)
	}
	section("Scenario campaign")
	c, err := scenario.RunCampaign(specs, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, r := range c.Results {
		fmt.Println(r.Outcome)
	}
	fmt.Println()
	fmt.Print(c.Table())
	if out != "" {
		blob, err := c.JSON()
		if err == nil {
			err = os.WriteFile(out, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "matrix-out:", err)
			return 2
		}
		fmt.Fprintln(os.Stderr, "wrote", out)
	}
	if !c.Passed() {
		return 1
	}
	return 0
}

// runFleetExec resolves an ebid-server binary and runs the routing
// experiment over real OS processes.
func runFleetExec(o experiments.Options, bin string) int {
	resolved, cleanup, err := resolveServerBin(bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer cleanup()
	section("Fleet routing (OS processes)")
	res, err := experiments.FigureFleetExec(o, resolved)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet-exec:", err)
		return 1
	}
	fmt.Println(res)
	if res.RoundRobin.Estab5xx+res.Routed.Estab5xx > 0 {
		fmt.Fprintf(os.Stderr, "fleet-exec: %d established sessions saw 5xx\n",
			res.RoundRobin.Estab5xx+res.Routed.Estab5xx)
		return 1
	}
	if res.Routed.LostSessions > 0 {
		fmt.Fprintf(os.Stderr, "fleet-exec: %d sessions lost\n", res.Routed.LostSessions)
		return 1
	}
	return 0
}

// resolveServerBin finds (or builds) the ebid-server binary: the
// explicit path, a sibling of this executable, PATH, then go build into
// a temp dir (cleaned up by the returned func).
func resolveServerBin(explicit string) (string, func(), error) {
	nop := func() {}
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", nop, fmt.Errorf("-fleet-bin %s: %w", explicit, err)
		}
		return explicit, nop, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "ebid-server")
		if _, err := os.Stat(cand); err == nil {
			return cand, nop, nil
		}
	}
	if p, err := exec.LookPath("ebid-server"); err == nil {
		return p, nop, nil
	}
	dir, err := os.MkdirTemp("", "fleet-bin-")
	if err != nil {
		return "", nop, err
	}
	out := filepath.Join(dir, "ebid-server")
	cmd := exec.Command("go", "build", "-o", out, "repro/cmd/ebid-server")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		return "", nop, fmt.Errorf("building ebid-server: %w (pass -fleet-bin)", err)
	}
	return out, func() { os.RemoveAll(dir) }, nil
}
