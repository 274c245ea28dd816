// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 5 and 6). Each exported function runs one
// experiment on the simulation substrate and returns a structured result
// whose String method prints the same rows/series the paper reports.
//
// Absolute numbers are produced by the calibrated simulator, not the
// authors' 2004 testbed; EXPERIMENTS.md records paper-vs-measured values
// and verifies that the shape of every result (who wins, by what factor,
// where crossovers fall) is preserved.
//
// The extension figures (brick crash, elastic ring, autoscale,
// fail-stutter bricks, fleet routing) are not here: scenario specs under
// scenarios/ define them, and internal/scenario runs and renders them on
// this package's Harness.
package experiments

import (
	"strconv"
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

// Options scales experiments; Quick shrinks durations and populations so
// the full suite runs in seconds (used by tests and benchmarks).
type Options struct {
	Quick bool
	// Seed selects the simulation seed. For backward compatibility a zero
	// Seed with SeedSet false means "use the documented default of 42";
	// set SeedSet to pin seed 0 explicitly (scenario specs and -seed do).
	Seed    int64
	SeedSet bool
	// ClusterStore selects the session store the multi-node cluster
	// experiments (Figures 3/4, Section 6.1) share across nodes: "fasts"
	// (default, node-local state — the paper's main configuration) or
	// "ssm-cluster" (a cross-node SSM brick cluster, the paper's §6.1
	// variant whose session state survives node restarts).
	ClusterStore string
}

// clusterKind maps ClusterStore onto the experiment store kind. Unknown
// names panic rather than silently measuring the wrong configuration.
func (o Options) clusterKind() storeKind {
	switch o.ClusterStore {
	case "ssm-cluster":
		return useSharedCluster
	case "ssm":
		return useSSM
	case "", "fasts":
		return useFastS
	default:
		panic("experiments: unknown ClusterStore " + strconv.Quote(o.ClusterStore))
	}
}

func (o Options) seed() int64 {
	if o.SeedSet {
		return o.Seed
	}
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// SeedValue reports the seed the experiment kernels will actually use
// (the documented default 42 unless a seed was given — zero counts as
// given only when SeedSet is true).
func (o Options) SeedValue() int64 { return o.seed() }

// scale shortens a duration in quick mode.
func (o Options) scale(d time.Duration) time.Duration {
	if o.Quick {
		return d / 4
	}
	return d
}

func (o Options) clients(n int) int {
	if o.Quick {
		return n / 2
	}
	return n
}

// Scaled exposes the quick-mode duration scaling to external drivers
// (the scenario engine shortens spec timelines exactly like figures).
func (o Options) Scaled(d time.Duration) time.Duration { return o.scale(d) }

// ScaledClients exposes the quick-mode population scaling.
func (o Options) ScaledClients(n int) int { return o.clients(n) }

// env is a single-node experiment environment.
type env struct {
	kernel   *sim.Kernel
	db       *db.DB
	store    session.Store
	node     *cluster.Node
	recorder *metrics.Recorder
	emulator *workload.Emulator
	injector *faults.Injector
}

// storeKind selects the session store.
type storeKind int

const (
	useFastS storeKind = iota
	useSSM
	// useSharedCluster gives every node of a multi-node environment the
	// same SSM brick cluster, so session state survives node restarts
	// and failover loses nothing.
	useSharedCluster
)

// newStore builds the session store for a kind on the kernel's clock;
// useSharedCluster gets the standard 4×3 W=2 brick cluster.
func newStore(k *sim.Kernel, kind storeKind) session.Store {
	switch kind {
	case useSSM:
		return session.NewSSM(k.Now, time.Hour)
	case useSharedCluster:
		cl, err := session.NewSSMCluster(session.ClusterConfig{
			Shards: 4, Replicas: 3, WriteQuorum: 2, Now: k.Now, LeaseTTL: time.Hour,
		})
		if err != nil {
			panic("experiments: cluster store: " + err.Error())
		}
		return cl
	default:
		return session.NewFastS()
	}
}

func experimentDataset(o Options) ebid.DatasetConfig {
	cfg := ebid.DefaultDataset()
	if o.Quick {
		cfg.Users, cfg.Items, cfg.OldItems = 100, 500, 50
	}
	return cfg
}

// newEnv builds a one-node environment with an emulated client
// population.
func newEnv(o Options, clients int, kind storeKind, nodeCfg cluster.NodeConfig) *env {
	k := sim.NewKernel(o.seed())
	d := db.New(nil)
	ds := experimentDataset(o)
	if err := ebid.LoadDataset(d, ds); err != nil {
		panic("experiments: dataset: " + err.Error())
	}
	store := newStore(k, kind)
	nodeCfg.Dataset = ds
	if nodeCfg.Name == "" {
		nodeCfg.Name = "node0"
	}
	n, err := cluster.NewNode(k, d, store, nodeCfg)
	if err != nil {
		panic("experiments: node: " + err.Error())
	}
	rec := metrics.NewRecorder(time.Second, 8*time.Second)
	em := workload.NewEmulator(k, n, rec, workload.Config{
		Clients:    clients,
		Users:      int64(ds.Users),
		Items:      int64(ds.Items),
		Categories: int64(ds.Categories),
		Regions:    int64(ds.Regions),
	})
	return &env{
		kernel:   k,
		db:       d,
		store:    store,
		node:     n,
		recorder: rec,
		emulator: em,
		injector: faults.NewInjector(n.Server(), d, store),
	}
}

// clusterEnv is a multi-node environment sharing one database (and one
// SSM when requested), with a load balancer in front.
type clusterEnv struct {
	kernel   *sim.Kernel
	db       *db.DB
	nodes    []*cluster.Node
	lb       *cluster.LoadBalancer
	recorder *metrics.Recorder
	emulator *workload.Emulator
	// injectors, one per node.
	injectors []*faults.Injector
	// plane/fleet are set by fleetPlane: the control plane owning the
	// balancer's drain state.
	plane *controlplane.Plane
	fleet *controlplane.FleetController
}

func newClusterEnv(o Options, nNodes, clientsPerNode int, kind storeKind) *clusterEnv {
	return newClusterEnvCfg(o, nNodes, clientsPerNode, kind, cluster.NodeConfig{})
}

func newClusterEnvCfg(o Options, nNodes, clientsPerNode int, kind storeKind, nodeCfg cluster.NodeConfig) *clusterEnv {
	k := sim.NewKernel(o.seed())
	d := db.New(nil)
	ds := experimentDataset(o)
	if err := ebid.LoadDataset(d, ds); err != nil {
		panic("experiments: dataset: " + err.Error())
	}
	ce := &clusterEnv{kernel: k, db: d}
	// FastS is node-local; the SSM kinds give every node one shared store.
	var shared session.Store
	if kind != useFastS {
		shared = newStore(k, kind)
	}
	for i := 0; i < nNodes; i++ {
		store := shared
		if store == nil {
			store = session.NewFastS()
		}
		cfg := nodeCfg
		cfg.Name = nodeName(i)
		cfg.Dataset = ds
		n, err := cluster.NewNode(k, d, store, cfg)
		if err != nil {
			panic("experiments: node: " + err.Error())
		}
		ce.nodes = append(ce.nodes, n)
		ce.injectors = append(ce.injectors, faults.NewInjector(n.Server(), d, store))
	}
	ce.lb = cluster.NewLoadBalancer(ce.nodes)
	ce.recorder = metrics.NewRecorder(time.Second, 8*time.Second)
	ce.emulator = workload.NewEmulator(k, ce.lb, ce.recorder, workload.Config{
		Clients:    nNodes * clientsPerNode,
		Users:      int64(ds.Users),
		Items:      int64(ds.Items),
		Categories: int64(ds.Categories),
		Regions:    int64(ds.Regions),
	})
	return ce
}

func nodeName(i int) string {
	return "node" + string(rune('0'+i))
}

// fleetPlane attaches a control plane whose FleetController owns the
// balancer's drain state: experiments stop flipping the LB directly and
// publish node-recovery signals instead, exactly as a recovery manager
// bound via controlplane.BindRecoveryLifecycle would.
func (ce *clusterEnv) fleetPlane(cfg controlplane.FleetConfig) *controlplane.Plane {
	ce.plane = controlplane.New(controlplane.Config{Clock: ce.kernel.Now, Fleet: ce.lb})
	ce.fleet = controlplane.NewFleetController(ce.lb, cfg)
	ce.plane.Use(ce.fleet)
	return ce.plane
}

// pumpEvery schedules fn as a recurring kernel event — the simulation
// analog of a live server's background ticker goroutine.
func pumpEvery(k *sim.Kernel, every time.Duration, fn func()) {
	var tick func()
	tick = func() {
		fn()
		k.Schedule(every, tick)
	}
	k.Schedule(every, tick)
}

// pumpPlane runs one control-plane observe–decide–act round per period.
func pumpPlane(k *sim.Kernel, plane *controlplane.Plane, every time.Duration) {
	pumpEvery(k, every, plane.Tick)
}
