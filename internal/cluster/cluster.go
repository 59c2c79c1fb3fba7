// Package cluster boots a complete distributed-inference deployment on
// loopback TCP: one main shard (engine + RPC service) plus the sparse
// shards a plan calls for, each with its own tracer, injected network
// links, and platform model. It is the in-process stand-in for the
// paper's reserved bare-metal servers "located in the same data centers
// as production recommendation ranking".
package cluster

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// Options tune a cluster boot.
type Options struct {
	// BatchSize overrides the model's default batch size (0 keeps it).
	BatchSize int
	// PaperSchedule is core.EngineConfig.PaperSchedule: per-batch, per-net
	// sparse calls, for internal/experiments' paper figures only.
	PaperSchedule bool
	// SparsePlatform selects the sparse shards' server class; defaults to
	// SC-Large as in the paper's apples-to-apples runs.
	SparsePlatform *platform.Platform
	// SpanCapacity is how many spans each recorder keeps before it drops
	// (default 1<<18); a recorder holds memory only for what it recorded.
	SpanCapacity int
	// Seed drives network jitter and clock-skew simulation.
	Seed int64
	// ClockSkew, when true, gives every shard a distinct simulated clock
	// offset (±up to 200ms) to exercise the analyzer's skew immunity.
	ClockSkew bool
	// Frontend, when non-nil, fronts the main shard with the SLA-aware
	// scheduler (dynamic batching + admission control) instead of the
	// direct one-request-per-call service.
	Frontend *frontend.Config
	// SparseReplicas serves every sparse shard from this many identical
	// servers (default 1). Sparse shards are stateless, so replicas share
	// one table store and one recorder.
	SparseReplicas int
	// ActiveReplicas, with SparseReplicas > 1, boots only the first N
	// replica slots of every shard serving; the rest boot parked — no
	// server, an unresponsive slot, and disabled in the hedged rotation —
	// as reclaimable headroom the elastic scheduler can activate later
	// via SetActiveReplicas (a snapshot rebuild from a healthy peer). 0
	// boots every slot serving.
	ActiveReplicas int
	// HedgeDelay, with SparseReplicas > 1, hedges sparse RPCs against a
	// replica once the primary has been outstanding this long.
	HedgeDelay time.Duration
	// HealthFails, with SparseReplicas > 1, enables health-aware replica
	// management: a replica that fails (or is hedged past while silent)
	// this many calls in a row is ejected from the rotation until a
	// probation probe succeeds. 0 disables ejection.
	HealthFails int
	// HealthProbe is how often an ejected replica is offered one probe
	// request (default 250ms); only meaningful with HealthFails > 0.
	HealthProbe time.Duration
	// MainMaxInFlight bounds concurrent requests dispatched at the main
	// shard's RPC server (0 = unbounded): transport-level backpressure.
	MainMaxInFlight int
	// Tier, when non-nil, enables the tiered embedding store on every
	// sparse shard: a hot-row cache byte budget in front of cold-tier
	// storage encoded per the config's tier plan.
	Tier *core.TierConfig
	// ShardDir, when set, boots every sparse shard from its persistent v2
	// shard file (<ShardDir>/<model>.shardN, mmap-backed where the
	// platform allows) instead of materializing tables from the in-memory
	// model. Files must have been exported under the same plan and tier
	// precisions (shardtool export-v2); checksummed section headers
	// reject anything else. Tier still supplies the hot-row cache budget.
	ShardDir string
	// Obs receives the deployment's live metrics: every serving stage
	// registers counters, gauges, and latency histograms against it under
	// a stable namespace (engine.*, frontend.*, replication.*, sparseN.*,
	// rpc.main.*). Nil boots with obs.Discard(): every handle is nil and
	// the instrumented paths cost one predictable-nil branch.
	Obs *obs.Registry
	// TraceSample, when > 0, live-samples one of every TraceSample
	// requests end to end: the sampled trace's spans are teed from every
	// shard's recorder into an obs.Tracer that emits a per-request stage
	// breakdown (deadline misses are always sampled). 0 disables tracing.
	TraceSample int
}

// sparseReplica is one serving replica of a sparse shard: a server, the
// dialed client behind a swappable slot, and the table store it serves
// (the shard's shared store, or a private one rebuilt from a peer after
// ReplaceReplica). Guarded by Cluster.replicaMu.
type sparseReplica struct {
	shard   int // 0-based shard index
	idx     int // replica index within the shard
	store   *core.SparseShard
	rec     *trace.Recorder
	profile netsim.Profile
	slot    *replication.Slot
	srv     *rpc.Server // nil while killed
	client  rpc.Caller  // nil while killed
}

// Cluster is a running deployment: the main role (promoted: Obs, Tracer,
// MainRec, Engine, Frontend) over loopback sparse roles.
type Cluster struct {
	*Main
	Model     *model.Model
	Plan      *sharding.Plan
	Collector *trace.Collector

	// Hedged holds the per-service hedged callers when SparseReplicas > 1
	// (keyed by service name: "sparse1", ...).
	Hedged map[string]*replication.Hedged

	// replicas holds every sparse serving replica, per shard.
	replicas [][]*sparseReplica
	// rebuilt tracks replacement table stores created by ReplaceReplica,
	// closed with the cluster (the original shared stores live in shards).
	rebuilt []*core.SparseShard
	shards  []*core.SparseShard
	// ctrl dials the control-plane drivers' connections. Guarded by
	// replicaMu.
	ctrl ControlPlane
	// mappings holds the mmap-backed shard-file storage when the cluster
	// booted from Options.ShardDir; closed after the shards that serve
	// views into it.
	mappings []io.Closer

	opts Options
	// active is how many replica slots per shard currently serve (the
	// rest are parked). Guarded by replicaMu.
	active int

	// replicaMu serializes failure injection and recovery against each
	// other and against Close.
	replicaMu sync.Mutex
	// ctrlMu serializes the control-plane drivers that change shard table
	// sets — Rebalance, Publish, ReplaceReplica, SetActiveReplicas — each
	// of which reads a table set in one step and commits against it in a
	// later one: a publish landing between a migration's reads and its
	// cutover would be missing from the moved copy, a rebuild mid-pass
	// would snapshot tables later commits no longer reach. Taken before
	// replicaMu.
	ctrlMu sync.Mutex

	// pubVersion is the highest delta-set version this cluster has
	// published (monotonic); the freshness probe reports each store's lag
	// behind it.
	pubVersion atomic.Uint64
	// pubMu guards pubEvents, the cumulative freshness timeline.
	pubMu     sync.Mutex
	pubEvents []core.PublishEvent
}

// Boot materializes shards, starts every sparse role and the main role
// over loopback, and connects them. Call Close to tear down.
func Boot(m *model.Model, plan *sharding.Plan, opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	replicas := opts.SparseReplicas
	if replicas < 1 {
		replicas = 1
	}
	active := opts.ActiveReplicas
	if active == 0 {
		active = replicas
	}
	if active < 1 || active > replicas {
		return nil, fmt.Errorf("cluster: ActiveReplicas %d out of range [1,%d]", opts.ActiveReplicas, replicas)
	}

	c := &Cluster{
		Main:      newMain(opts),
		Model:     m,
		Plan:      plan,
		Collector: trace.NewCollector(),
		Hedged:    make(map[string]*replication.Hedged),
		opts:      opts,
		active:    active,
	}
	c.Collector.Attach(c.MainRec)

	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	callers := make(map[string]rpc.Caller)
	if plan.IsDistributed() {
		recs := make([]*trace.Recorder, plan.NumShards)
		for i := range recs {
			recs[i] = newRecorder(core.ServiceName(i+1), i+1, opts, c.Tracer)
			c.Collector.Attach(recs[i])
		}
		shards, mappings, err := sparseStores(m, plan, recs, opts)
		if err != nil {
			return nil, err
		}
		c.shards, c.mappings = shards, mappings
		// Freshness probe: published high water vs the slowest shared
		// store. Atomic reads only — replica-private rebuilt stores are
		// covered by their own <shard>.model_version gauges.
		c.Obs.RegisterProbeGroup(func(emit func(string, int64)) {
			pv := c.pubVersion.Load()
			min := pv
			for _, sh := range shards {
				if v := sh.ModelVersion(); v < min {
					min = v
				}
			}
			emit("publish.min_model_version", int64(min))
			emit("publish.lag", int64(pv-min))
		})
		c.replicas = make([][]*sparseReplica, len(shards))
		for i, sh := range shards {
			// Replica servers share the shard's table store and recorder:
			// sparse shards are stateless, so a replica is just another
			// front door to identical data. Each sits behind a swappable
			// Slot so failure injection and recovery can tear a server
			// down and splice a replacement in without touching the
			// hedged caller above it — which therefore wraps the slots,
			// not the dialed clients, and its latency accounting follows
			// the replica identity across ReplaceReplica swaps.
			slots := make([]rpc.Caller, 0, replicas)
			for r := 0; r < replicas; r++ {
				rep := &sparseReplica{
					shard: i, idx: r, store: sh, rec: recs[i],
					profile: opts.sparsePlatform().Network(opts.Seed + int64(i)*7919 + int64(r)*104729),
				}
				// Parked headroom (r >= active) runs no server and its slot
				// stays unresponsive; the replica index is also disabled in
				// the hedged rotation below, so nothing routes there until
				// SetActiveReplicas activates it.
				rep.slot = replication.NewSlot(replication.Unresponsive())
				c.replicas[i] = append(c.replicas[i], rep)
				if r < active {
					if err := c.startReplica(rep); err != nil {
						return nil, err
					}
				}
				slots = append(slots, rep.slot)
			}
			caller, h, err := serviceCaller(sh.ShardName, slots, opts)
			if err != nil {
				return nil, err
			}
			callers[sh.ShardName] = caller
			if h != nil {
				for r := active; r < replicas; r++ {
					h.SetEnabled(r, false)
				}
				c.Hedged[sh.ShardName] = h
			}
		}
	}

	// Pre-fault every table's storage so the first measured requests do
	// not pay page-in costs that later configurations (sharing the warm
	// process) would not — the moral equivalent of a production loader
	// touching the model after deserialization. Shard-file boots skip
	// it: demand paging the mmap'd tables is the point of that path, and
	// the shards do not serve from the in-memory model anyway.
	if opts.ShardDir == "" {
		for _, t := range m.Tables {
			touchTable(t)
		}
	}

	if err := c.start(m, plan, "127.0.0.1:0", callers, opts); err != nil {
		return nil, err
	}
	ok = true
	return c, nil
}

// startReplica boots a server for the replica's store, dials its client
// and splices it into the replica's slot.
func (c *Cluster) startReplica(rep *sparseReplica) error {
	srv, err := startSparse("127.0.0.1:0", rep.store, rep.rec, rep.profile.Response, c.opts.sparsePlatform())
	if err != nil {
		return err
	}
	client, err := rpc.Dial(srv.Addr(), rep.profile.Request)
	if err != nil {
		srv.Close()
		return fmt.Errorf("cluster: dialing %s replica %d: %w", rep.store.ShardName, rep.idx, err)
	}
	rep.srv, rep.client = srv, client
	rep.slot.Swap(client)
	return nil
}

// stopReplica tears a replica's server and client down and forgets the
// control-plane connection to it. Caller holds replicaMu.
func (c *Cluster) stopReplica(rep *sparseReplica) {
	c.ctrl.drop(rep.srv.Addr())
	rep.srv.Close() // waits for in-flight handlers
	rep.client.Close()
	rep.srv, rep.client = nil, nil
}

// touchTable walks a table's backing storage to fault it in.
func touchTable(t interface{ Bytes() int64 }) {
	switch tt := t.(type) {
	case *embedding.Dense:
		var sink float32
		for i := 0; i < len(tt.Data); i += 1024 {
			sink += tt.Data[i]
		}
		_ = sink
	default:
		// Quantized backends are built by transformation and already warm.
	}
}

// skewFor derives a deterministic per-shard clock offset.
func skewFor(opts Options, shard int) time.Duration {
	if !opts.ClockSkew {
		return 0
	}
	// Simple splitmix-style hash of (seed, shard) to ±200ms.
	x := uint64(opts.Seed)*0x9e3779b97f4a7c15 + uint64(shard+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	ms := int64(x%401) - 200
	return time.Duration(ms) * time.Millisecond
}

// MainAddr returns the main shard's serving address.
func (c *Cluster) MainAddr() string { return c.Server.Addr() }

// DialMain connects a replayer client to the main shard.
func (c *Cluster) DialMain() (*rpc.Client, error) {
	return rpc.Dial(c.MainAddr(), nil)
}

// ResetTraces clears all recorded spans (used after warmup).
func (c *Cluster) ResetTraces() { c.Collector.Reset() }

// Shards exposes the sparse shard services (nil for singular plans) —
// tests and the rebalancer introspect epochs and load summaries.
func (c *Cluster) Shards() []*core.SparseShard { return c.shards }

// storeAddrs lists, per shard, the address of one live server per
// distinct table store, in replica order: replicas sharing a store are
// reached through its first live one, a replica rebuilt from a peer has
// its own. A killed replica holding a private store is not listed
// (nothing serves it): it returns stale, and its staleness shows in its
// <shard>.model_version gauge until the next publish or rebuild. Caller
// holds replicaMu.
func (c *Cluster) storeAddrs() [][]string {
	out := make([][]string, len(c.replicas))
	for si, reps := range c.replicas {
		seen := make(map[*core.SparseShard]bool)
		for _, rep := range reps {
			if rep.srv != nil && !seen[rep.store] {
				seen[rep.store] = true
				out[si] = append(out[si], rep.srv.Addr())
			}
		}
	}
	return out
}

// SparseAddrs lists each sparse shard's serving address, in shard order:
// its first live replica's ("" while a shard is dark).
func (c *Cluster) SparseAddrs() []string {
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	addrs := make([]string, len(c.replicas))
	for i, stores := range c.storeAddrs() {
		if len(stores) > 0 {
			addrs[i] = stores[0]
		}
	}
	return addrs
}

// drivers builds the control-plane drivers over the deployment's live
// servers — per pass: replicas killed, revived, or replaced since the
// last one changed which endpoints cover the store set. A publish
// welcomes a heterogeneous replica fleet (its point is to make every
// distinct store fresh); online resharding commits table moves into one
// store per shard, so with homogeneous set a replica serving its own
// rebuilt store — which a migration would leave behind, and the replicas
// would stop answering identically — is refused, exactly as drmserve
// refuses -rebalance-every with standalone hedge replicas.
func (c *Cluster) drivers(homogeneous bool) (*core.Migrator, *core.Publisher, error) {
	if !c.Plan.IsDistributed() {
		return nil, nil, fmt.Errorf("cluster: singular deployments hold no sparse shards to reshard or publish to (swap dense weights via Engine.SwapDense)")
	}
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	for si, reps := range c.replicas {
		for _, rep := range reps {
			if homogeneous && rep.store != c.shards[si] {
				return nil, nil, fmt.Errorf("cluster: %s replica %d serves a store rebuilt from a peer; online resharding needs a homogeneous replica fleet", rep.store.ShardName, rep.idx)
			}
		}
	}
	return c.ctrl.Drivers(c.Main, c.storeAddrs())
}

// Migrator builds the online-resharding driver for this deployment,
// addressing every sparse shard's first live server — so migration stays
// available through dead windows no matter which replica died.
func (c *Cluster) Migrator() (*core.Migrator, error) {
	mg, _, err := c.drivers(true)
	return mg, err
}

// Rebalance runs one observe→plan→migrate→cutover pass against the
// shards' measured load, usable mid-replay: requests keep flowing while
// rows stream and the routing swap is atomic. The cluster's Plan field
// tracks the target so later passes (and introspection) see the current
// placement.
func (c *Cluster) Rebalance(opts sharding.RebalanceOptions) (*core.RebalanceReport, error) {
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	mg, err := c.Migrator()
	if err != nil {
		return nil, err
	}
	report, err := mg.Rebalance(opts)
	if err != nil {
		return nil, err
	}
	c.Plan = report.Plan.Target
	return report, nil
}

// TierStats snapshots every sparse shard's tiered-storage state (nil for
// singular plans) — resident cold/cache bytes and cache hit counters.
func (c *Cluster) TierStats() []core.TierStats {
	out := make([]core.TierStats, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.TierSnapshot()
	}
	return out
}

// ResidentBytes sums the sparse shards' live storage footprints (cold
// tier plus hot-row caches) — the capacity a deployment provisions for.
func (c *Cluster) ResidentBytes() int64 {
	var n int64
	for _, sh := range c.shards {
		n += sh.Bytes()
	}
	return n
}

// MainStats snapshots the main server's backpressure gauges.
func (c *Cluster) MainStats() rpc.ServerStats { return c.Server.Stats() }

// Close tears down the deployment; safe on partially built clusters:
// the main role first (it drains while the sparse callers still work),
// then connections, sparse servers, table stores and, last, the mappings
// the stores view.
func (c *Cluster) Close() {
	c.Main.Close()
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	c.ctrl.Close()
	for _, reps := range c.replicas {
		for _, rep := range reps {
			if rep.client != nil {
				rep.client.Close()
			}
			if rep.srv != nil {
				rep.srv.Close()
			}
		}
	}
	closeStores(c.rebuilt, nil)
	closeStores(c.shards, c.mappings)
}
