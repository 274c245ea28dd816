package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json at the
// repository root names exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct{ Name string }      `json:"end_to_end"`
		PerLayer  []struct{ Name string }      `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	wf, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range bj.Workloads {
		if i < len(wf.Workloads) && w.Why != wf.Workloads[i].Why {
			t.Errorf("workload %s: BENCHMARK.json why differs from workloads.json", w.Name)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	same := func(what string, got []string, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d, code has %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, code %q", what, i, got[i], want[i])
			}
		}
	}
	nameList := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	var codeNames []string
	for _, w := range wf.Workloads {
		codeNames = append(codeNames, w.Name)
	}
	same("workloads", names, codeNames)
	same("end_to_end", nameList(bj.EndToEnd), endToEnd)
	same("per_layer", nameList(bj.PerLayer), perLayer)
}
