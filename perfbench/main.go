// Command perfbench is the repository's benchmark. It drives the real
// eBid programs (ebid-server, and ebid-proxy over ebid-server backends)
// with an open-loop generator and reports what a client sees: latency
// from the scheduled send, CPU and memory per request, set-up time and,
// under recovery, the requests each microreboot or process restart
// disturbs. With -trace 1 it reports per-layer costs instead: counters
// read from the running programs, spans recorded around each layer of
// an in-process assembly of the same packages, and a ladder of direct
// calls through each layer's entry point.
//
// Usage (from the repository root, after building the binaries; run.py
// does both):
//
//	perfbench -workload read-hot|paper-mix|recover|all -seed N -seconds S -trace 0|1 -bin DIR -work DIR
//
// Every metric is printed by name with its unit; the last line of
// standard output is one JSON object with correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's outcome.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Problems  []string // why Correct is false
	Table     []string // traced mode: the per-layer and ladder tables
}

func (r *report) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{name, value, unit})
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) json() ([]byte, error) {
	m := map[string]metric{}
	for _, x := range r.Metrics {
		m[x.Name] = x
	}
	return json.Marshal(map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   m,
	})
}

func main() {
	name := flag.String("workload", "", "workload name from workloads.json, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	binDir := flag.String("bin", "", "directory holding the built ebid-server and ebid-proxy")
	workDir := flag.String("work", "", "scratch directory for WAL files and program logs")
	flag.Parse()
	if *name == "" || *binDir == "" || *workDir == "" || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	// The generator gets no more CPUs than the machine has, capped at 2.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(1)
	}()

	code := run(*name, *seed, *seconds, *trace == 1, *binDir, *workDir)
	stopAll()
	os.Exit(code)
}

func run(name string, seed int64, seconds int, trace bool, binDir, workDir string) int {
	wf, err := loadWorkloads()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var names []string
	if name == "all" {
		for _, w := range wf.Workloads {
			names = append(names, w.Name)
		}
	} else {
		if _, err := wf.find(name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		names = []string{name}
	}
	all := map[string]json.RawMessage{}
	var last []byte
	for _, n := range names {
		w, _ := wf.find(n)
		rep, err := runWorkload(wf, w, seed, seconds, trace, binDir, workDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		printReport(w, rep, trace)
		if last, err = rep.json(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		all[n] = last
	}
	if len(names) > 1 {
		out, err := json.Marshal(all)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		last = out
	}
	fmt.Println(string(last))
	return 0
}

// printReport prints every metric by name with its unit, and in traced
// mode the per-layer table with each layer's share of the
// client-observed mean.
func printReport(w *Workload, rep *report, trace bool) {
	fmt.Printf("== %s (%s)\n", w.Name, w.Topology)
	fmt.Printf("   %d attempted, %d failed, correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, p := range rep.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	for _, m := range rep.Metrics {
		fmt.Printf("   %-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if trace {
		printLayerTable(rep)
	}
}
