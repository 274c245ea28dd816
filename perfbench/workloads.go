package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// Workload is one traffic mix against one program topology. The
// definitions live in workloads.json, the single record of each
// workload's reason, topology, flags, dataset, fixed rate and p99 limit.
type Workload struct {
	Name     string `json:"name"`
	Why      string `json:"why"`
	Topology string `json:"topology"`
	// Backends is the ebid-proxy fleet size; 0 runs one ebid-server.
	Backends    int      `json:"backends"`
	ServerFlags []string `json:"server_flags"`
	Users       int64    `json:"users"`
	Items       int64    `json:"items"`
	// Traffic is "zipf-reads" (anonymous read-only visitors) or
	// "table1" (the emulator's Markov chain of Table 1).
	Traffic      string  `json:"traffic"`
	VirtualUsers int     `json:"virtual_users"`
	RateRPS      float64 `json:"rate_rps"`
	P99LimitMs   float64 `json:"p99_limit_ms"`
	WarmupS      float64 `json:"warmup_s"`
	SetupRuns    int     `json:"setup_runs"`
	// EventEveryS spaces recovery events (alternately a microreboot and
	// a backend SIGKILL); 0 means no events.
	EventEveryS float64 `json:"event_every_s"`
}

type workloadFile struct {
	Conns      int               `json:"conns"`
	RatioBases map[string]string `json:"ratio_bases"`
	Workloads  []Workload        `json:"workloads"`
}

//go:embed workloads.json
var workloadsJSON []byte

func loadWorkloads() (*workloadFile, error) {
	var f workloadFile
	if err := json.Unmarshal(workloadsJSON, &f); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if f.Conns < 1 {
		return nil, fmt.Errorf("workloads.json: conns %d", f.Conns)
	}
	for _, w := range f.Workloads {
		if w.Traffic != "zipf-reads" && w.Traffic != "table1" {
			return nil, fmt.Errorf("workloads.json: %s: unknown traffic %q", w.Name, w.Traffic)
		}
		if w.RateRPS <= 0 || w.VirtualUsers < 1 || w.SetupRuns < 1 || w.Users < 1 || w.Items < 1 {
			return nil, fmt.Errorf("workloads.json: %s: rate, virtual users, set-up runs and dataset must be positive", w.Name)
		}
	}
	return &f, nil
}

func (f *workloadFile) find(name string) (*Workload, error) {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// newSource builds the workload's seeded request stream.
func (w *Workload) newSource(seed int64) source {
	if w.Traffic == "table1" {
		return newTable1Walk(seed, w.VirtualUsers, w.Users, w.Items)
	}
	return newZipfReads(seed, w.VirtualUsers, w.Users, w.Items)
}
