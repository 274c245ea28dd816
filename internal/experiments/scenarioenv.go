package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/ebid"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store/db"
	"repro/internal/store/session"
	"repro/internal/workload"
)

// HarnessConfig describes the simulated environment the declarative
// scenario engine in internal/scenario wants built: the same kernel,
// dataset, stores, nodes and balancer the hand-written figures build
// with newEnv/newClusterEnv, with errors instead of panics so a bad spec
// fails the scenario rather than the process.
type HarnessConfig struct {
	// Nodes is the application-server fleet size (default 1). Even a
	// single node sits behind a LoadBalancer so routing policies, drains
	// and fleet probes work uniformly.
	Nodes int
	// Store selects the session store: "fasts" (default, node-local),
	// "ssm" (one shared single-node SSM) or "ssm-cluster" (a shared
	// sharded/replicated brick cluster).
	Store string
	// Shards/Replicas/WriteQuorum/LeaseTTL set the brick-cluster
	// geometry when Store is "ssm-cluster" (defaults 4 × 3, W=2, 1 h).
	Shards, Replicas, WriteQuorum int
	LeaseTTL                      time.Duration
	// Node is the base per-node configuration (workers, congestion
	// model, retries); PerNode may specialize individual nodes
	// (heterogeneous fleets, e.g. one degraded replica).
	Node    cluster.NodeConfig
	PerNode func(i int, cfg *cluster.NodeConfig)
}

// Harness is a fully wired multi-node experiment environment: kernel,
// database, session store, nodes behind a load balancer, a Taw recorder
// and one fault injector per node. It is what scenario specs are
// interpreted onto.
type Harness struct {
	Opts      Options
	Kernel    *sim.Kernel
	DB        *db.DB
	Dataset   ebid.DatasetConfig
	Nodes     []*cluster.Node
	LB        *cluster.LoadBalancer
	Recorder  *metrics.Recorder
	Injectors []*faults.Injector
	// Bricks is the shared brick cluster (nil unless Store was
	// "ssm-cluster"); SharedSSM likewise for "ssm".
	Bricks    *session.SSMCluster
	SharedSSM *session.SSM
}

// NewHarness builds the environment. Unknown store names and invalid
// brick geometries are errors, not panics.
func NewHarness(o Options, cfg HarnessConfig) (*Harness, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	k := sim.NewKernel(o.seed())
	d := db.New(nil)
	ds := experimentDataset(o)
	if err := ebid.LoadDataset(d, ds); err != nil {
		return nil, fmt.Errorf("harness: dataset: %w", err)
	}
	h := &Harness{Opts: o, Kernel: k, DB: d, Dataset: ds}
	switch cfg.Store {
	case "", "fasts":
	case "ssm":
		ttl := cfg.LeaseTTL
		if ttl == 0 {
			ttl = time.Hour
		}
		h.SharedSSM = session.NewSSM(k.Now, ttl)
	case "ssm-cluster":
		ccfg := session.ClusterConfig{
			Shards:      cfg.Shards,
			Replicas:    cfg.Replicas,
			WriteQuorum: cfg.WriteQuorum,
			LeaseTTL:    cfg.LeaseTTL,
			Now:         k.Now,
		}
		if ccfg.Shards == 0 {
			ccfg.Shards = 4
		}
		if ccfg.Replicas == 0 {
			ccfg.Replicas = 3
		}
		if ccfg.WriteQuorum == 0 {
			ccfg.WriteQuorum = 2
		}
		if ccfg.LeaseTTL == 0 {
			ccfg.LeaseTTL = time.Hour
		}
		cl, err := session.NewSSMCluster(ccfg)
		if err != nil {
			return nil, fmt.Errorf("harness: brick cluster: %w", err)
		}
		h.Bricks = cl
	default:
		return nil, fmt.Errorf("harness: unknown store %q (want fasts, ssm or ssm-cluster)", cfg.Store)
	}
	for i := 0; i < cfg.Nodes; i++ {
		var store session.Store
		switch {
		case h.Bricks != nil:
			store = h.Bricks
		case h.SharedSSM != nil:
			store = h.SharedSSM
		default:
			store = session.NewFastS()
		}
		ncfg := cfg.Node
		ncfg.Name = nodeName(i)
		ncfg.Dataset = ds
		if cfg.PerNode != nil {
			cfg.PerNode(i, &ncfg)
		}
		n, err := cluster.NewNode(k, d, store, ncfg)
		if err != nil {
			return nil, fmt.Errorf("harness: node %d: %w", i, err)
		}
		h.Nodes = append(h.Nodes, n)
		h.Injectors = append(h.Injectors, faults.NewInjector(n.Server(), d, store))
	}
	h.LB = cluster.NewLoadBalancer(h.Nodes)
	h.Recorder = metrics.NewRecorder(time.Second, 8*time.Second)
	return h, nil
}

// NewEmulator builds a client population against fe (the harness
// balancer, or a wrapper around it), with dataset cardinalities
// pre-filled. idOffset keeps session ids of several populations
// (baseline + surges) distinct.
func (h *Harness) NewEmulator(fe workload.Frontend, clients, idOffset int, cfg workload.Config) *workload.Emulator {
	cfg.Clients = clients
	cfg.ClientIDOffset = idOffset
	cfg.Users = int64(h.Dataset.Users)
	cfg.Items = int64(h.Dataset.Items)
	cfg.Categories = int64(h.Dataset.Categories)
	cfg.Regions = int64(h.Dataset.Regions)
	return workload.NewEmulator(h.Kernel, fe, h.Recorder, cfg)
}

// PumpEvery schedules fn as a recurring kernel event.
func (h *Harness) PumpEvery(every time.Duration, fn func()) { pumpEvery(h.Kernel, every, fn) }

// PumpPlane runs one control-plane round per period.
func (h *Harness) PumpPlane(plane *controlplane.Plane, every time.Duration) {
	pumpPlane(h.Kernel, plane, every)
}

// PumpMigration advances the brick migrator on a recurring schedule (a
// no-op harness without a brick cluster); a step is a cheap no-op while
// no ring change is in flight.
func (h *Harness) PumpMigration(every time.Duration, batch int) {
	if h.Bricks != nil {
		pumpEvery(h.Kernel, every, func() { h.Bricks.MigrateStep(batch) })
	}
}

// PumpReaper runs recurring lease GC on the brick cluster. Without it, a
// load-watching controller would keep counting sessions whose leases
// lapsed long ago.
func (h *Harness) PumpReaper(every time.Duration) {
	if h.Bricks != nil {
		pumpEvery(h.Kernel, every, func() { h.Bricks.ReapExpired() })
	}
}

// BrickRestarts sums restart counts across live bricks.
func (h *Harness) BrickRestarts() int {
	if h.Bricks == nil {
		return 0
	}
	total := 0
	for _, b := range h.Bricks.Bricks() {
		total += b.Restarts()
	}
	return total
}
