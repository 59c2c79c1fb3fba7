package cluster

import (
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
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

// Deployment assembly: one assembler per role. A deployment is a main
// role (dense nets + the engine's sparse callers) over N sparse roles
// (one table store behind one RPC server each). Boot composes them over
// loopback with replica slots, parking and simulated links; cmd/drmserve
// composes the same assemblers over -listen/-peers, one role per
// process. Everything here runs at boot: the request path never calls
// back into this file.

// gcTuneOnce relaxes the collector: the request path allocates several
// MB per request against a modest live heap, and default GOGC triggers
// collections frequently enough that GC assists visibly stretch operator
// spans. Applied once per process by whichever role starts first, so
// every role of every composition runs under the same policy.
var gcTuneOnce sync.Once

func tuneGC() { gcTuneOnce.Do(func() { debug.SetGCPercent(400) }) }

// Validate refuses option combinations no role can serve under.
func (o Options) Validate() error {
	if o.HealthFails > 0 && o.HedgeDelay <= 0 {
		// Slow-strike detection hangs off the hedge timer: without it a
		// silent replica produces no signal to count, and the breaker's
		// wait bounds (multiples of the delay) vanish.
		return fmt.Errorf("cluster: HealthFails requires HedgeDelay > 0 (health ejection needs the hedge timer to detect silence)")
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.SpanCapacity == 0 {
		o.SpanCapacity = 1 << 18
	}
	if o.Obs == nil {
		o.Obs = obs.Discard()
	}
	return o
}

// sparsePlatform is the sparse shards' server class (SC-Large unless
// overridden).
func (o Options) sparsePlatform() platform.Platform {
	if o.SparsePlatform != nil {
		return *o.SparsePlatform
	}
	return platform.SCLarge()
}

// newRecorder makes shard number `shard`'s span recorder (0 is the main
// shard), teeing into the live tracer when there is one.
func newRecorder(name string, shard int, opts Options, tracer *obs.Tracer) *trace.Recorder {
	rec := trace.NewRecorder(name, opts.SpanCapacity)
	rec.SetClockSkew(skewFor(opts, shard))
	if tracer != nil {
		rec.SetSink(tracer)
	}
	return rec
}

// Main is a running main role: telemetry, the compiled engine over its
// sparse callers, the optional SLA frontend, and the RPC server in front.
type Main struct {
	// Obs is the role's metrics registry (obs.Discard() when Options.Obs
	// was nil, so reads are always safe).
	Obs *obs.Registry
	// Tracer holds sampled live request traces when Options.TraceSample
	// was > 0 (nil otherwise).
	Tracer  *obs.Tracer
	MainRec *trace.Recorder

	Engine *core.Engine
	// Frontend is non-nil when Options.Frontend fronted the main shard.
	Frontend *frontend.Frontend
	Server   *rpc.Server

	// dialed holds the peer connections StartMain opened.
	dialed []*rpc.Client
}

// newMain builds the main role's telemetry — what the sparse roles of
// the same process tee into — ahead of start.
func newMain(opts Options) *Main {
	tuneGC()
	mn := &Main{Obs: opts.Obs}
	if opts.TraceSample > 0 {
		mn.Tracer = obs.NewTracer(mn.Obs, obs.TracerConfig{
			SampleEvery:    opts.TraceSample,
			OnDeadlineMiss: true,
		})
	}
	mn.MainRec = newRecorder("main", 0, opts, mn.Tracer)
	return mn
}

// StartMain assembles the main role on listen over remote sparse roles:
// peers maps each service the plan routes to ("sparse1", ...) to its
// servers' addresses, primary first; a service bound more than once is
// hedged. request, when non-nil, injects link latency on outgoing frames.
func StartMain(m *model.Model, plan *sharding.Plan, listen string, peers map[string][]string, request *netsim.Link, opts Options) (*Main, error) {
	opts = opts.withDefaults()
	mn := newMain(opts)
	callers := make(map[string]rpc.Caller, len(peers))
	for service, addrs := range peers {
		replicas := make([]rpc.Caller, len(addrs))
		for i, addr := range addrs {
			cl, err := rpc.Dial(addr, request)
			if err != nil {
				mn.Close()
				return nil, err
			}
			replicas[i] = cl
			mn.dialed = append(mn.dialed, cl)
		}
		caller, _, err := serviceCaller(service, replicas, opts)
		if err != nil {
			mn.Close()
			return nil, err
		}
		callers[service] = caller
	}
	if err := mn.start(m, plan, listen, callers, opts); err != nil {
		mn.Close()
		return nil, err
	}
	return mn, nil
}

// start compiles the engine over callers — each sparse service's serving
// caller, which stay the composition's to close — and serves it.
func (mn *Main) start(m *model.Model, plan *sharding.Plan, listen string, callers map[string]rpc.Caller, opts Options) error {
	eng, err := core.NewEngine(m, plan, core.EngineConfig{
		BatchSize:     opts.BatchSize,
		PaperSchedule: opts.PaperSchedule,
		Recorder:      mn.MainRec,
		Obs:           mn.Obs,
		ClientFor: func(service string) (rpc.Caller, error) {
			cl, ok := callers[service]
			if !ok {
				return nil, fmt.Errorf("cluster: no caller bound for service %q", service)
			}
			return cl, nil
		},
	})
	if err != nil {
		return err
	}
	mn.Engine = eng

	var handler rpc.Handler = &core.MainService{Engine: eng, Rec: mn.MainRec, Tracer: mn.Tracer}
	if opts.Frontend != nil {
		fcfg := *opts.Frontend
		fcfg.Obs = mn.Obs
		fcfg.Tracer = mn.Tracer
		mn.Frontend = frontend.New(eng, fcfg)
		handler = &frontend.Service{F: mn.Frontend, Rec: mn.MainRec}
	}
	srv, err := rpc.NewServer(listen, handler, rpc.ServerConfig{
		Recorder:        mn.MainRec,
		BoilerplateCost: platform.BaseBoilerplate,
		MaxInFlight:     opts.MainMaxInFlight,
	})
	if err != nil {
		return fmt.Errorf("cluster: starting main shard: %w", err)
	}
	mn.Server = srv
	mn.Obs.RegisterProbeGroup(func(emit func(string, int64)) {
		s := srv.Stats()
		emit("rpc.main.inflight", s.InFlight)
		emit("rpc.main.peak_inflight", s.PeakInFlight)
		emit("rpc.main.overloads", s.Overloads)
	})
	return nil
}

// Close stops the role; safe on a partially started one. Order matters
// once a frontend is in play: stop admitting at the server, drain the
// frontend's queue (its executions still need the sparse callers), then
// drop the peer connections.
func (mn *Main) Close() {
	if mn.Server != nil {
		mn.Server.Close()
	}
	if mn.Frontend != nil {
		mn.Frontend.Close()
	}
	for _, cl := range mn.dialed {
		cl.Close()
	}
}

// sparseStores builds the table store of every shard this process serves
// — recs[i] records shard i+1, a nil entry is a shard served elsewhere —
// from its v2 shard file under opts.ShardDir, or else from the model.
// Only served shards are tiered: fp32 tables are views of the model, so
// the unserved remainder of a materialized plan costs nothing, while
// encoding a cold tier is a full pass over a shard's rows. The returned
// mappings back file-booted stores and close after them.
func sparseStores(m *model.Model, plan *sharding.Plan, recs []*trace.Recorder, opts Options) (stores []*core.SparseShard, mappings []io.Closer, err error) {
	if opts.ShardDir == "" {
		if stores, err = core.MaterializeShardsTiered(m, plan, recs, nil); err != nil {
			return nil, nil, err
		}
	} else {
		stores = make([]*core.SparseShard, plan.NumShards)
		for i, rec := range recs {
			if rec == nil {
				continue
			}
			path := core.ShardFilePath(opts.ShardDir, plan.ModelName, i+1)
			sh, shard, mapping, err := core.OpenShardFile(path, rec)
			if err == nil && shard != i+1 {
				sh.Close()
				mapping.Close()
				err = fmt.Errorf("file holds shard %d", shard)
			}
			if err != nil {
				closeStores(stores, mappings)
				return nil, nil, fmt.Errorf("cluster: booting shard %d from %s: %w", i+1, path, err)
			}
			stores[i], mappings = sh, append(mappings, mapping)
		}
	}
	for i, sh := range stores {
		if recs[i] == nil {
			stores[i] = nil
			continue
		}
		if opts.Tier != nil {
			sh.SetTier(opts.Tier)
		}
		sh.OpComputeScale = opts.sparsePlatform().OpComputeScale
		sh.SetObs(opts.Obs)
	}
	return stores, mappings, nil
}

// closeStores releases table stores, then the mappings their tables may
// be views into.
func closeStores(stores []*core.SparseShard, mappings []io.Closer) {
	for _, sh := range stores {
		if sh != nil {
			sh.Close()
		}
	}
	for _, mp := range mappings {
		mp.Close()
	}
}

// startSparse puts one sparse server in front of a table store; replicas
// of a shard are just more of these over the same store.
func startSparse(listen string, store *core.SparseShard, rec *trace.Recorder, response *netsim.Link, plat platform.Platform) (*rpc.Server, error) {
	tuneGC()
	srv, err := rpc.NewServer(listen, store, rpc.ServerConfig{
		Recorder:        rec,
		ResponseLink:    response,
		BoilerplateCost: platform.BaseBoilerplate,
		ComputeScale:    plat.BoilerplateScale,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: starting %s on %s: %w", store.ShardName, listen, err)
	}
	return srv, nil
}

// Sparse is a running sparse role: one shard's table store behind its
// RPC server.
type Sparse struct {
	Store  *core.SparseShard
	Server *rpc.Server

	mappings []io.Closer
}

// ServeSparse assembles the sparse role for shard number `shard`
// (1-based) of plan on listen, from <opts.ShardDir>/<model>.shardN when
// set (m may then be nil) or from the model. response, when non-nil,
// injects link latency on reply frames.
func ServeSparse(m *model.Model, plan *sharding.Plan, shard int, listen string, response *netsim.Link, opts Options) (*Sparse, error) {
	if !plan.IsDistributed() {
		return nil, fmt.Errorf("cluster: singular plans have no sparse shards")
	}
	if shard < 1 || shard > plan.NumShards {
		return nil, fmt.Errorf("cluster: shard %d outside [1, %d]", shard, plan.NumShards)
	}
	opts = opts.withDefaults()
	recs := make([]*trace.Recorder, plan.NumShards)
	recs[shard-1] = newRecorder(core.ServiceName(shard), shard, opts, nil)
	stores, mappings, err := sparseStores(m, plan, recs, opts)
	if err != nil {
		return nil, err
	}
	s := &Sparse{Store: stores[shard-1], mappings: mappings}
	if s.Server, err = startSparse(listen, s.Store, recs[shard-1], response, opts.sparsePlatform()); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close stops the server, then releases the store and any file mapping
// under it.
func (s *Sparse) Close() {
	if s.Server != nil {
		s.Server.Close()
	}
	closeStores([]*core.SparseShard{s.Store}, s.mappings)
}

// serviceCaller builds the engine's caller for one sparse service over
// its replicas' callers: the sole replica itself, or a hedged rotation
// (first caller is the primary) with health ejection when
// opts.HealthFails asks for it, registered under replication.<service>.
// and with per-replica call_ns/lost observers.
func serviceCaller(service string, replicas []rpc.Caller, opts Options) (rpc.Caller, *replication.Hedged, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if len(replicas) == 1 {
		return replicas[0], nil, nil
	}
	// A replica's measured call latency includes the hedge bound's worth
	// of patience: an observer still waiting past this gives up and books
	// the call as lost (replicas swapped for Unresponsive() by failure
	// injection would otherwise pin observer goroutines).
	callBound := 8 * opts.HedgeDelay
	if callBound < 250*time.Millisecond {
		callBound = 250 * time.Millisecond
	}
	observed := make([]rpc.Caller, len(replicas))
	for r, caller := range replicas {
		prefix := fmt.Sprintf("replication.%s.replica%d.", service, r)
		observed[r] = replication.ObserveCaller(caller,
			opts.Obs.Histogram(prefix+"call_ns"), opts.Obs.Counter(prefix+"lost"), callBound)
	}
	h, err := replication.NewHedged(observed, opts.HedgeDelay)
	if err != nil {
		return nil, nil, err
	}
	if opts.HealthFails > 0 {
		h.Health = replication.NewHealthTracker(len(observed), replication.HealthConfig{
			FailThreshold: opts.HealthFails,
			ProbeEvery:    opts.HealthProbe,
		})
	}
	h.RegisterMetrics(opts.Obs, "replication."+service+".")
	return h, h, nil
}

// ControlPlane dials the connections control-plane drivers (Migrator,
// Publisher, RebuildFromPeer) reach sparse servers over, cached by
// address. They are plain single connections, never the serving callers,
// which may be hedged: core's method descriptor (shardMethod.plane) says
// why a control-plane call never is. Not safe for concurrent use (a
// Cluster guards its own with replicaMu).
type ControlPlane struct {
	conns map[string]*rpc.Client
}

// endpoint addresses service's server at addr, dialing on first use.
func (cp *ControlPlane) endpoint(service, addr string) (core.ShardEndpoint, error) {
	conn, ok := cp.conns[addr]
	if !ok {
		var err error
		if conn, err = rpc.DialPool(addr, nil, 1); err != nil {
			return core.ShardEndpoint{}, fmt.Errorf("cluster: dialing control plane for %s: %w", service, err)
		}
		if cp.conns == nil {
			cp.conns = make(map[string]*rpc.Client)
		}
		cp.conns[addr] = conn
	}
	return core.ShardEndpoint{Service: service, Addr: addr, Caller: conn}, nil
}

// Drivers builds main role mn's control-plane drivers. stores[i] lists
// the server addresses of shard i+1, one per distinct table store,
// primary first: the migrator commits a move into the primary's store
// only (so it needs every replica of a shard to share that store), the
// publisher streams each store its own delta.
func (cp *ControlPlane) Drivers(mn *Main, stores [][]string) (*core.Migrator, *core.Publisher, error) {
	mg := &core.Migrator{Engine: mn.Engine, Rec: mn.MainRec, Shards: make(map[int]core.ShardEndpoint)}
	pub := &core.Publisher{Engine: mn.Engine, Rec: mn.MainRec, Obs: mn.Obs, Shards: make(map[int][]core.ShardEndpoint)}
	for i, addrs := range stores {
		name := core.ServiceName(i + 1)
		if len(addrs) == 0 {
			return nil, nil, fmt.Errorf("cluster: %s has no live server for the control plane", name)
		}
		for _, addr := range addrs {
			ep, err := cp.endpoint(name, addr)
			if err != nil {
				return nil, nil, err
			}
			pub.Shards[i+1] = append(pub.Shards[i+1], ep)
		}
		mg.Shards[i+1] = pub.Shards[i+1][0]
	}
	return mg, pub, nil
}

// drop forgets the connection to a server that stopped: a later server
// may reuse the address.
func (cp *ControlPlane) drop(addr string) {
	if conn, ok := cp.conns[addr]; ok {
		conn.Close()
		delete(cp.conns, addr)
	}
}

// Close drops every cached connection.
func (cp *ControlPlane) Close() {
	for addr := range cp.conns {
		cp.drop(addr)
	}
}
