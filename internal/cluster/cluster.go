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
	"runtime/debug"
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
	// SpanCapacity sizes each recorder's span slab (default 1<<18).
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

// Cluster is a running deployment.
type Cluster struct {
	Model     *model.Model
	Plan      *sharding.Plan
	Registry  *rpc.Registry
	Collector *trace.Collector
	MainRec   *trace.Recorder

	// Obs is the deployment's metrics registry (obs.Discard() when
	// Options.Obs was nil, so reads are always safe).
	Obs *obs.Registry
	// Tracer holds sampled live request traces when Options.TraceSample
	// was > 0 (nil otherwise).
	Tracer *obs.Tracer

	Engine *core.Engine
	// Frontend is non-nil when Options.Frontend fronted the main shard.
	Frontend *frontend.Frontend
	// Hedged holds the per-service hedged callers when SparseReplicas > 1
	// (keyed like Registry services: "sparse1", ...).
	Hedged map[string]*replication.Hedged

	mainServer *rpc.Server
	// replicas holds every sparse serving replica, per shard.
	replicas [][]*sparseReplica
	// rebuilt tracks replacement table stores created by ReplaceReplica,
	// closed with the cluster (the original shared stores live in shards).
	rebuilt []*core.SparseShard
	shards  []*core.SparseShard
	clients map[string]rpc.Caller
	// ctrlClients are plain (never hedged) connections the rebalancer's
	// control plane uses: hedging a stage.commit would re-issue it to a
	// replica sharing the same table store and trip the protocol's
	// commit-without-begin guard.
	ctrlClients map[string]*rpc.Client
	// pubClients are plain (never hedged) connections the publisher's
	// control plane uses, keyed by server address because freshness
	// deltas address every distinct table store, not just each shard's
	// registered primary. Guarded by replicaMu.
	pubClients map[string]*rpc.Client
	// shardClosers releases mmap-backed shard-file storage when the
	// cluster booted from Options.ShardDir; closed after the shards that
	// serve views into it.
	shardClosers []io.Closer

	plat platform.Platform
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

// gcTuneOnce relaxes the collector for measurement runs: the request
// path allocates several MB per request against a modest live heap, and
// default GOGC triggers collections frequently enough that GC assists
// visibly stretch operator spans. This is a measurement-harness decision,
// applied once per process at first cluster boot.
var gcTuneOnce sync.Once

// Boot materializes shards, starts all servers, connects all clients,
// and compiles the main-shard engine. Call Close to tear down.
func Boot(m *model.Model, plan *sharding.Plan, opts Options) (*Cluster, error) {
	gcTuneOnce.Do(func() { debug.SetGCPercent(400) })
	if opts.SpanCapacity == 0 {
		opts.SpanCapacity = 1 << 18
	}
	plat := platform.SCLarge()
	if opts.SparsePlatform != nil {
		plat = *opts.SparsePlatform
	}

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
	if opts.HealthFails > 0 && opts.HedgeDelay <= 0 {
		// Slow-strike detection hangs off the hedge timer: without it a
		// silent replica produces no signal to count, and the breaker's
		// wait bounds (multiples of the delay) vanish.
		return nil, fmt.Errorf("cluster: HealthFails requires HedgeDelay > 0 (health ejection needs the hedge timer to detect silence)")
	}

	c := &Cluster{
		Model:       m,
		Plan:        plan,
		Registry:    rpc.NewRegistry(),
		Collector:   trace.NewCollector(),
		clients:     make(map[string]rpc.Caller),
		ctrlClients: make(map[string]*rpc.Client),
		pubClients:  make(map[string]*rpc.Client),
		Hedged:      make(map[string]*replication.Hedged),
		plat:        plat,
		opts:        opts,
		active:      active,
	}
	c.Obs = opts.Obs
	if c.Obs == nil {
		c.Obs = obs.Discard()
	}
	if opts.TraceSample > 0 {
		c.Tracer = obs.NewTracer(c.Obs, obs.TracerConfig{
			SampleEvery:    opts.TraceSample,
			OnDeadlineMiss: true,
		})
	}
	c.MainRec = trace.NewRecorder("main", opts.SpanCapacity)
	c.Collector.Attach(c.MainRec)
	if c.Tracer != nil {
		c.MainRec.SetSink(c.Tracer)
	}
	skew := skewFor(opts, 0)
	c.MainRec.SetClockSkew(skew)

	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	if plan.IsDistributed() {
		recs := make([]*trace.Recorder, plan.NumShards)
		for i := range recs {
			recs[i] = trace.NewRecorder(core.ServiceName(i+1), opts.SpanCapacity)
			recs[i].SetClockSkew(skewFor(opts, i+1))
			c.Collector.Attach(recs[i])
			if c.Tracer != nil {
				recs[i].SetSink(c.Tracer)
			}
		}
		var shards []*core.SparseShard
		var err error
		if opts.ShardDir != "" {
			shards, err = c.openShardDir(m, plan, recs, opts)
		} else {
			shards, err = core.MaterializeShardsTiered(m, plan, recs, opts.Tier)
		}
		if err != nil {
			return nil, err
		}
		c.shards = shards
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
		// A replica's measured call latency includes the hedge bound's
		// worth of patience: an observer still waiting past this gives up
		// and books the call as lost (replicas swapped for Unresponsive()
		// by failure injection would otherwise pin observer goroutines).
		callBound := 8 * opts.HedgeDelay
		if callBound < 250*time.Millisecond {
			callBound = 250 * time.Millisecond
		}
		for i, sh := range shards {
			sh.OpComputeScale = plat.OpComputeScale
			sh.SetObs(c.Obs)
			// Replica servers share the shard's table store and recorder:
			// sparse shards are stateless, so a replica is just another
			// front door to identical data. Each sits behind a swappable
			// Slot so failure injection and recovery can tear a server
			// down and splice a replacement in without touching the
			// hedged caller above it.
			callers := make([]rpc.Caller, 0, replicas)
			for r := 0; r < replicas; r++ {
				rep := &sparseReplica{
					shard: i, idx: r, store: sh, rec: recs[i],
					profile: plat.Network(opts.Seed + int64(i)*7919 + int64(r)*104729),
				}
				if r < active {
					if err := c.startReplica(rep); err != nil {
						return nil, err
					}
					rep.slot = replication.NewSlot(rep.client)
				} else {
					// Parked headroom: no server runs and the slot goes
					// unresponsive; the replica index is also disabled in
					// the hedged rotation below, so nothing routes here
					// until SetActiveReplicas activates it.
					rep.slot = replication.NewSlot(replication.Unresponsive())
				}
				c.replicas[i] = append(c.replicas[i], rep)
				if r == 0 {
					c.Registry.Register(sh.ShardName, rep.srv.Addr())
				}
				caller := rpc.Caller(rep.slot)
				if replicas > 1 {
					// Wrap the slot, not the dialed client, so latency
					// accounting follows the replica identity across
					// ReplaceReplica swaps.
					svcPrefix := fmt.Sprintf("replication.%s.replica%d.", sh.ShardName, r)
					caller = replication.ObserveCaller(caller,
						c.Obs.Histogram(svcPrefix+"call_ns"),
						c.Obs.Counter(svcPrefix+"lost"), callBound)
				}
				callers = append(callers, caller)
			}
			if replicas == 1 {
				c.clients[sh.ShardName] = callers[0]
				continue
			}
			h, err := replication.NewHedged(callers, opts.HedgeDelay)
			if err != nil {
				return nil, err
			}
			for r := active; r < replicas; r++ {
				h.SetEnabled(r, false)
			}
			if opts.HealthFails > 0 {
				h.Health = replication.NewHealthTracker(len(callers), replication.HealthConfig{
					FailThreshold: opts.HealthFails,
					ProbeEvery:    opts.HealthProbe,
				})
			}
			h.RegisterMetrics(c.Obs, "replication."+sh.ShardName+".")
			c.Hedged[sh.ShardName] = h
			c.clients[sh.ShardName] = h
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

	eng, err := core.NewEngine(m, plan, core.EngineConfig{
		BatchSize:     opts.BatchSize,
		PaperSchedule: opts.PaperSchedule,
		Recorder:      c.MainRec,
		Obs:           c.Obs,
		ClientFor: func(service string) (rpc.Caller, error) {
			cl, ok := c.clients[service]
			if !ok {
				return nil, fmt.Errorf("cluster: no client for %s", service)
			}
			return cl, nil
		},
	})
	if err != nil {
		return nil, err
	}
	c.Engine = eng

	var mainHandler rpc.Handler = &core.MainService{Engine: eng, Rec: c.MainRec, Tracer: c.Tracer}
	if opts.Frontend != nil {
		fcfg := *opts.Frontend
		fcfg.Obs = c.Obs
		fcfg.Tracer = c.Tracer
		c.Frontend = frontend.New(eng, fcfg)
		mainHandler = &frontend.Service{F: c.Frontend, Rec: c.MainRec}
	}
	mainSrv, err := rpc.NewServer("127.0.0.1:0", mainHandler, rpc.ServerConfig{
		Recorder:        c.MainRec,
		BoilerplateCost: platform.BaseBoilerplate,
		MaxInFlight:     opts.MainMaxInFlight,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: starting main shard: %w", err)
	}
	c.mainServer = mainSrv
	c.Registry.Register("main", mainSrv.Addr())
	c.Obs.RegisterProbeGroup(func(emit func(string, int64)) {
		s := mainSrv.Stats()
		emit("rpc.main.inflight", s.InFlight)
		emit("rpc.main.peak_inflight", s.PeakInFlight)
		emit("rpc.main.overloads", s.Overloads)
	})
	ok = true
	return c, nil
}

// openShardDir boots every sparse shard from its persistent v2 shard
// file — the paper's "serialized from parameter servers" artifact —
// serving embedding reads straight out of mmap-backed storage where the
// platform allows. Lookups are bit-identical to a MaterializeShardsTiered
// boot from the same model under the same tier plan.
func (c *Cluster) openShardDir(m *model.Model, plan *sharding.Plan, recs []*trace.Recorder, opts Options) ([]*core.SparseShard, error) {
	shards := make([]*core.SparseShard, 0, plan.NumShards)
	fail := func(err error) ([]*core.SparseShard, error) {
		for _, sh := range shards {
			sh.Close()
		}
		return nil, err
	}
	for i := 0; i < plan.NumShards; i++ {
		path := core.ShardFilePath(opts.ShardDir, m.Config.Name, i+1)
		sh, shard, closer, err := core.OpenShardFile(path, recs[i])
		if err != nil {
			return fail(fmt.Errorf("cluster: booting shard %d from %s: %w", i+1, path, err))
		}
		// The closer outlives the shard (tables may be views into the
		// mapping); Close releases them after the shards.
		c.shardClosers = append(c.shardClosers, closer)
		if shard != i+1 {
			sh.Close()
			return fail(fmt.Errorf("cluster: %s holds shard %d, want %d", path, shard, i+1))
		}
		if opts.Tier != nil {
			sh.SetTier(opts.Tier)
		}
		shards = append(shards, sh)
	}
	return shards, nil
}

// startReplica boots a server for the replica's store and dials its
// client; the caller owns splicing the client into the replica's slot.
func (c *Cluster) startReplica(rep *sparseReplica) error {
	srv, err := rpc.NewServer("127.0.0.1:0", rep.store, rpc.ServerConfig{
		Recorder:        rep.rec,
		ResponseLink:    rep.profile.Response,
		BoilerplateCost: platform.BaseBoilerplate,
		ComputeScale:    c.plat.BoilerplateScale,
	})
	if err != nil {
		return fmt.Errorf("cluster: starting %s replica %d: %w", rep.store.ShardName, rep.idx, err)
	}
	client, err := rpc.Dial(srv.Addr(), rep.profile.Request)
	if err != nil {
		srv.Close()
		return fmt.Errorf("cluster: dialing %s replica %d: %w", rep.store.ShardName, rep.idx, err)
	}
	rep.srv, rep.client = srv, client
	return nil
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
func (c *Cluster) MainAddr() string { return c.mainServer.Addr() }

// DialMain connects a replayer client to the main shard.
func (c *Cluster) DialMain() (*rpc.Client, error) {
	return rpc.Dial(c.MainAddr(), nil)
}

// ResetTraces clears all recorded spans (used after warmup).
func (c *Cluster) ResetTraces() { c.Collector.Reset() }

// Shards exposes the sparse shard services (nil for singular plans) —
// tests and the rebalancer introspect epochs and load summaries.
func (c *Cluster) Shards() []*core.SparseShard { return c.shards }

// Migrator builds the online-resharding driver for this deployment,
// addressing every sparse shard's primary server.
func (c *Cluster) Migrator() (*core.Migrator, error) {
	if !c.Plan.IsDistributed() {
		return nil, fmt.Errorf("cluster: singular deployments have nothing to reshard")
	}
	mg := &core.Migrator{Engine: c.Engine, Rec: c.MainRec, Shards: make(map[int]core.ShardEndpoint)}
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	// Online resharding commits table moves into one store per shard. A
	// replica replaced after a failure serves its own rebuilt store, so
	// a migration would update only one copy and the replicas would stop
	// answering identically — refuse, exactly as drmserve refuses
	// -rebalance-every with standalone hedge replicas.
	for si, reps := range c.replicas {
		for _, rep := range reps {
			if rep.store != c.shards[si] {
				return nil, fmt.Errorf("cluster: %s replica %d serves a store rebuilt from a peer; online resharding needs a homogeneous replica fleet", rep.store.ShardName, rep.idx)
			}
		}
	}
	for i := 0; i < c.Plan.NumShards; i++ {
		name := core.ServiceName(i + 1)
		addr, err := c.Registry.Lookup(name)
		if err != nil {
			return nil, err
		}
		caller, ok := c.ctrlClients[name]
		if !ok {
			caller, err = rpc.DialPool(addr, nil, 1)
			if err != nil {
				return nil, fmt.Errorf("cluster: dialing control plane for %s: %w", name, err)
			}
			c.ctrlClients[name] = caller
		}
		mg.Shards[i+1] = core.ShardEndpoint{Service: name, Addr: addr, Caller: caller}
	}
	return mg, nil
}

// dropCtrlClient invalidates the cached control-plane connection for a
// shard whose primary server changed (killed, revived, replaced): the
// next Migrator build re-dials the registry's current address. Caller
// holds replicaMu.
func (c *Cluster) dropCtrlClient(name string) {
	if cc, ok := c.ctrlClients[name]; ok {
		cc.Close()
		delete(c.ctrlClients, name)
	}
}

// refreshRegistry keeps a shard's registered (control-plane) address on
// a live server: when the current registration matches no live replica,
// the first live one is registered and the cached control client
// invalidated, so migration stays available through dead windows no
// matter which replica died. A fully dark shard keeps its stale
// registration. Caller holds replicaMu.
func (c *Cluster) refreshRegistry(shard int) {
	name := c.shards[shard].ShardName
	cur, err := c.Registry.Lookup(name)
	live := ""
	for _, p := range c.replicas[shard] {
		if p.srv == nil {
			continue
		}
		if err == nil && p.srv.Addr() == cur {
			return // already registered to a live server
		}
		if live == "" {
			live = p.srv.Addr()
		}
	}
	if live == "" {
		return
	}
	c.Registry.Register(name, live)
	c.dropCtrlClient(name)
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
func (c *Cluster) MainStats() rpc.ServerStats {
	if c.mainServer == nil {
		return rpc.ServerStats{}
	}
	return c.mainServer.Stats()
}

// Close tears down the deployment; safe on partially built clusters.
// Order matters once a frontend is in play: stop admitting at the main
// server, drain the frontend's queue (its executions still need the
// sparse clients), then drop connections and sparse servers.
func (c *Cluster) Close() {
	if c.mainServer != nil {
		c.mainServer.Close()
	}
	if c.Frontend != nil {
		c.Frontend.Close()
	}
	for _, cl := range c.clients {
		cl.Close()
	}
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	for _, cl := range c.ctrlClients {
		cl.Close()
	}
	for _, cl := range c.pubClients {
		cl.Close()
	}
	for _, reps := range c.replicas {
		for _, rep := range reps {
			if rep.srv != nil {
				rep.srv.Close()
			}
			if rep.client != nil {
				rep.client.Close()
			}
		}
	}
	for _, sh := range c.rebuilt {
		sh.Close()
	}
	for _, sh := range c.shards {
		sh.Close()
	}
	// After the shards: mmap-backed tables are views into these mappings.
	for _, cl := range c.shardClosers {
		cl.Close()
	}
}
