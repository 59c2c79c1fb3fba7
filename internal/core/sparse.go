package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// tableKey addresses a whole table (part 0 of 1) or one row-partition.
type tableKey struct {
	id   int
	part int
}

func (k tableKey) loadKey() sharding.TableLoadKey {
	return sharding.TableLoadKey{TableID: k.id, PartIndex: k.part}
}

// sortedTableKeys returns m's keys in (id, part) order, for walks whose
// outcome must not depend on map iteration order.
func sortedTableKeys[V any](m map[tableKey]V) []tableKey {
	keys := make([]tableKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].part < keys[j].part
	})
	return keys
}

// SparseShard serves pooled embedding lookups for the tables (and table
// partitions) a sharding plan assigns to it. Table storage is immutable
// once installed — the property Section III-A1 requires so shards can be
// replicated and restarted freely — but the *set* of tables a shard
// holds changes through staged transactions (stage.go): a driver fills
// shadow copies and commits them at a new epoch, and a migration source
// keeps its retained copy until every request routed under the old plan
// has drained, so lookups in flight across a cutover are never wrong. A
// shard is a leaf: it answers calls and issues none.
type SparseShard struct {
	// ShardName labels spans ("sparse3").
	ShardName string
	// slsName names the pooling operator's spans ("sls_sparse3").
	slsName string
	rec     *trace.Recorder
	// OpComputeScale stretches sparse-op time to model slower platforms
	// (burned as real CPU); 0 or 1 means no scaling.
	OpComputeScale float64

	mu     sync.RWMutex
	tables map[tableKey]embedding.Table
	// staging holds every open transaction's shadow copies, committed or
	// aborted as a set (stage.go).
	staging map[uint64]map[tableKey]*stagedTable
	// tier, when non-nil, enables the tiered store: tables install behind
	// a hot-row cache over a (possibly quantized) cold tier. Guarded by mu.
	tier *TierConfig

	epoch atomic.Uint64
	// modelVersion is the highest committed model-version transaction —
	// the freshness gauge exported as "<shard>.model_version".
	modelVersion atomic.Uint64

	// met holds the shard's metric handles (nil no-ops until SetObs).
	met shardMetrics

	loadMu sync.Mutex
	load   *sharding.LoadSummary
	// lastLoad retains the most recent collected (and reset) window so
	// the tier controller keeps apportioning the cache budget from a full
	// window right after a rebalance pass wipes the live accumulator.
	lastLoad *sharding.LoadSummary
}

// NewSparseShard returns an empty shard recording to rec.
func NewSparseShard(name string, rec *trace.Recorder) *SparseShard {
	return &SparseShard{
		ShardName: name,
		slsName:   "sls_" + name,
		rec:       rec,
		tables:    make(map[tableKey]embedding.Table),
		staging:   make(map[uint64]map[tableKey]*stagedTable),
		load:      sharding.NewLoadSummary(),
	}
}

// shardMetrics is a sparse shard's live-telemetry handle set, under the
// "<shard>." namespace. All handles are nil (free no-ops) before SetObs.
type shardMetrics struct {
	runCalls *obs.Counter   // sparse.run requests served
	bags     *obs.Counter   // bags those requests asked about
	present  *obs.Counter   // of them, non-empty: the rows pooled and shipped
	runNs    *obs.Histogram // full handleRun duration (decode → encode)
	opNs     *obs.Histogram // pooling-net execution time

	// served counts control-plane calls per method, for the methods the
	// method table gives a counter name.
	served     map[string]*obs.Counter
	stageBytes *obs.Counter // stage.put row payload bytes received
}

// SetObs attaches a metrics registry: counters and histograms under the
// shard's name ("sparse1.sparse.run_ns", "sparse1.stage.puts", ...)
// plus a probe group exporting the tiered store's state at snapshot
// time. Call before serving begins.
func (s *SparseShard) SetObs(reg *obs.Registry) {
	p := s.ShardName + "."
	s.met = shardMetrics{
		runCalls:   reg.Counter(p + "sparse.calls"),
		bags:       reg.Counter(p + "sparse.bags"),
		present:    reg.Counter(p + "sparse.bags_present"),
		runNs:      reg.Histogram(p + "sparse.run_ns"),
		opNs:       reg.Histogram(p + "sparse.op_ns"),
		served:     make(map[string]*obs.Counter),
		stageBytes: reg.Counter(p + "stage.bytes"),
	}
	for _, m := range shardMethods {
		if m.counter != "" {
			s.met.served[m.name] = reg.Counter(p + m.counter)
		}
	}
	reg.RegisterProbeGroup(func(emit func(string, int64)) {
		ts := s.TierSnapshot()
		emit(p+"tier.tables", int64(ts.Tables))
		emit(p+"tier.cold_bytes", ts.ColdBytes)
		emit(p+"tier.cache_bytes", ts.CacheBytes)
		emit(p+"tier.cache_cap_bytes", ts.CacheCapBytes)
		emit(p+"tier.hits", ts.Hits)
		emit(p+"tier.misses", ts.Misses)
		emit(p+"tier.admits", ts.Admits)
		emit(p+"epoch", int64(s.Epoch()))
		emit(p+"model_version", int64(s.ModelVersion()))
	})
}

// AddTable installs a whole table.
func (s *SparseShard) AddTable(id int, t embedding.Table) {
	s.InstallTable(id, 0, t)
}

// AddPart installs one row-partition of a table.
func (s *SparseShard) AddPart(id, part int, t embedding.Table) {
	s.InstallTable(id, part, t)
}

// InstallTable activates table storage under (id, part) and bumps the
// epoch. Under a tier config the table is wrapped on the way in
// (cold-tier encoding plus a fresh, empty hot-row cache) and the shard's
// cache budget is re-apportioned.
func (s *SparseShard) InstallTable(id, part int, t embedding.Table) {
	s.mu.Lock()
	s.tables[tableKey{id: id, part: part}] = s.tierWrap(id, t)
	s.mu.Unlock()
	s.epoch.Add(1)
	s.retier()
}

// ReleaseTable drops the shard's copy of (id, part) — a migration
// source's last step, once no request routed to it under the old plan is
// running — and reports whether it held one. The copy's cache dies with
// it; the rest of the budget redistributes over the tables still held.
func (s *SparseShard) ReleaseTable(id, part int) bool {
	key := tableKey{id: id, part: part}
	s.mu.Lock()
	_, held := s.tables[key]
	delete(s.tables, key)
	s.mu.Unlock()
	if held {
		s.epoch.Add(1)
		s.retier()
	}
	return held
}

// Epoch returns the shard's table-set epoch: it advances on every
// install, commit and release, so two reads bracketing a lookup prove no
// cutover interleaved.
func (s *SparseShard) Epoch() uint64 { return s.epoch.Load() }

// NumTables reports how many tables/parts the shard holds.
func (s *SparseShard) NumTables() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// Bytes reports the shard's embedding storage footprint.
func (s *SparseShard) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, t := range s.tables {
		n += t.Bytes()
	}
	return n
}

// LoadSnapshot returns a copy of the shard's accumulated load summary;
// reset additionally clears the live accumulator.
func (s *SparseShard) LoadSnapshot(reset bool) *sharding.LoadSummary {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	out := s.load.Clone()
	if reset {
		if len(out.Tables) > 0 {
			s.lastLoad = out
		}
		s.load = sharding.NewLoadSummary()
	}
	return out
}

// Close drops any open staging: a transaction its driver never ended
// holds table-sized buffers.
func (s *SparseShard) Close() {
	s.mu.Lock()
	clear(s.staging)
	s.mu.Unlock()
}

// shardMethod is one row of the shard's method descriptor.
type shardMethod struct {
	name   string
	handle func(*SparseShard, trace.Context, []byte) ([]byte, error)
	// plane is the side of the shard the method serves. The serving plane
	// (sparse.run) records its own serde and operator spans, and callers
	// may hedge it: a duplicate call pools the same rows twice. Handle
	// wraps a control-plane call in a LayerMigration span named after the
	// method and prefixes its errors. A control-plane call is never
	// hedged: a driver reads or changes a table set in steps, and a hedged
	// stage.commit would re-issue against a store that already consumed
	// the transaction and trip the commit-without-begin guard. So
	// control-plane drivers reach a shard only over plain connections of
	// their own (ShardEndpoint.Caller, cluster.ControlPlane), never over a
	// serving caller.
	plane methodPlane
	// counter names the per-shard counter of served calls ("" = none).
	counter string
}

// methodPlane is a shard method's side: see shardMethod.plane.
type methodPlane uint8

const (
	servingPlane methodPlane = iota
	controlPlane
)

// shardMethods is the sparse role's method descriptor, the one place a
// method is stated: the serving path first (Handle walks it in order),
// then load collection and the staged table-set transaction. DESIGN.md's
// method table and the control-plane fuzz corpus are tested against it.
var shardMethods = []shardMethod{
	{name: MethodSparseRun, handle: (*SparseShard).handleRun, plane: servingPlane},
	{name: MethodSparseLoad, handle: (*SparseShard).handleLoad, plane: controlPlane},
	{name: MethodStageBegin, handle: (*SparseShard).handleStageBegin, plane: controlPlane, counter: "stage.begins"},
	{name: MethodStagePut, handle: (*SparseShard).handleStagePut, plane: controlPlane, counter: "stage.puts"},
	{name: MethodStageCommit, handle: (*SparseShard).handleStageCommit, plane: controlPlane, counter: "stage.commits"},
	{name: MethodStageAbort, handle: (*SparseShard).handleStageAbort, plane: controlPlane},
	{name: MethodTableList, handle: (*SparseShard).handleTableList, plane: controlPlane},
	{name: MethodTableRead, handle: (*SparseShard).handleTableRead, plane: controlPlane, counter: "table.reads"},
	{name: MethodTableRelease, handle: (*SparseShard).handleTableRelease, plane: controlPlane, counter: "table.releases"},
}

// Handle implements rpc.Handler by a static walk of shardMethods.
func (s *SparseShard) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	for i := range shardMethods {
		m := &shardMethods[i]
		if m.name != method {
			continue
		}
		if m.plane == servingPlane {
			return m.handle(s, ctx, body)
		}
		start := s.rec.Now()
		out, err := m.handle(s, ctx, body)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %s: %w", s.ShardName, method, err)
		}
		s.rec.Record(trace.Span{
			TraceID: ctx.TraceID, CallID: ctx.CallID, Layer: trace.LayerMigration,
			Name: method, Start: start, Dur: s.rec.Now().Sub(start),
		})
		s.met.served[method].Inc()
		return out, nil
	}
	return nil, fmt.Errorf("core: %s: unknown method %q", s.ShardName, method)
}

// runEntry is one sparse-request entry — read in place, its bag list a
// view of the request body — resolved against the shard's current table
// set.
type runEntry struct {
	sparseEntryView
	table embedding.Table
	out   []float32 // where the pooled rows are written
}

// handleRun serves one sparse.run call — by default a whole request's
// worth of this shard's tables, every net's. The request is read in
// place: the pooling kernel walks an entry's lengths and indices where
// the rpc layer put them, and nothing per bag is built. The response
// carries one row per non-empty bag and nothing for an empty one, so its
// size and the work behind it follow the lookups, not tables × items. It
// is laid out once, from the request's entry shapes and bag lengths,
// before any pooling: entry headers are written in place and each net's
// SLS operator writes every row of its entries' float regions exactly
// once, so the pooled rows are never zeroed first, copied or re-encoded
// on their way to the rpc layer. The body crosses the rpc.Handler
// boundary and is therefore a plain garbage-collected allocation nothing
// here touches again.
//
// Entries naming one (table, part) twice are served as asked — each
// pooled from its own bag list into its own region, each counted in the
// load summary; answers match entries by position, so nothing downstream
// confuses them. The main shard never sends such a list.
func (s *SparseShard) handleRun(ctx trace.Context, body []byte) ([]byte, error) {
	s.met.runCalls.Inc()
	runStart := time.Now() //lint:allow determinism stage latency histogram; never reaches response bytes
	defer func() { s.met.runNs.Observe(int64(time.Since(runStart))) }()

	// Deserialize (RPC Ser/De at the sparse shard): one walk bounds every
	// count and counts every entry's non-empty bags.
	desStart := s.rec.Now()
	req, run, err := readRun(body)
	s.rec.Record(trace.Span{
		TraceID: ctx.TraceID, CallID: ctx.CallID, Layer: trace.LayerSerDe,
		Net: "", Name: "sparse/decode", Start: desStart, Dur: s.rec.Now().Sub(desStart),
	})
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", s.ShardName, err)
	}

	// Resolve every entry against one consistent snapshot of the table
	// set: a cutover landing mid-request changes what the *next* request
	// sees, never this one.
	slots := make([]pooledSlot, len(run))
	var bags, present int
	s.mu.RLock()
	for i := range run {
		e := &run[i]
		tab, ok := s.tables[tableKey{id: int(e.TableID), part: int(e.PartIndex)}]
		if !ok {
			s.mu.RUnlock()
			return nil, fmt.Errorf("core: %s does not hold table %d part %d", s.ShardName, e.TableID, e.PartIndex)
		}
		e.table = tab
		dim := tab.Dim()
		slots[i] = pooledSlot{
			TableID: e.TableID, PartIndex: e.PartIndex,
			Rows: int32(len(e.Lens)), Cols: int32(dim), n: e.present * dim,
		}
		bags, present = bags+len(e.Lens), present+e.present
	}
	s.mu.RUnlock()
	s.met.bags.Add(int64(bags))
	s.met.present.Add(int64(present))
	if size := sparseResponseSize(slots); size > rpc.MaxFrameSize {
		// Refuse what could never be framed before allocating it.
		return nil, fmt.Errorf("core: %s: a response of %d bytes exceeds the frame limit", s.ShardName, size)
	}

	// Lay the response out (RPC Ser/De at the sparse shard): all that is
	// left of serialization is this allocation and its headers.
	encStart := s.rec.Now()
	out := layoutSparseResponse(slots)
	encDur := s.rec.Now().Sub(encStart)

	// Build and run the pooling nets: per net named in the request, one
	// fused SLS over its entries, executed through the framework so Net
	// Overhead and operator spans are attributed exactly like the main
	// shard's, net by net.
	netObs := &trace.NetObserver{R: s.rec, Ctx: ctx}
	opStart := time.Now() //lint:allow determinism op wall time feeds compute-scale burn and load stats, not results
	entries := make([]embedding.PoolEntry, 0, len(run))
	for k, name := range req.nets {
		first := len(entries)
		for i := range run {
			e := &run[i]
			if int(e.Net) != k {
				continue
			}
			e.out = floatsOver(slots[i].region(out))
			entries = append(entries, embedding.PoolEntry{Table: e.table, Lens: e.Lens, Indices: e.Indices, Out: e.out})
		}
		if len(entries) == first {
			continue
		}
		sls := &nn.MultiSLS{OpName: s.slsName, Entries: entries[first:]}
		if err := (&nn.Net{NetName: name, Ops: []nn.Op{sls}}).Run(nil, netObs); err != nil {
			return nil, fmt.Errorf("core: %s: %w", s.ShardName, err)
		}
	}
	if s.OpComputeScale > 1 {
		burnFor(time.Duration(float64(time.Since(opStart)) * (s.OpComputeScale - 1))) //lint:allow determinism scaled burn models a slower platform; results unchanged
	}
	opDur := time.Since(opStart) //lint:allow determinism measured latency goes to histograms and load accounting only
	s.met.opNs.Observe(int64(opDur))
	s.accountLoad(run, opDur)

	if !wireNative {
		// The conversion pass a host of the other byte order owes.
		convStart := s.rec.Now()
		for i := range run {
			putF32s(slots[i].region(out), run[i].out)
		}
		encDur += s.rec.Now().Sub(convStart)
	}
	s.rec.Record(trace.Span{
		TraceID: ctx.TraceID, CallID: ctx.CallID, Layer: trace.LayerSerDe,
		Name: "sparse/encode", Start: encStart, Dur: encDur,
	})
	return out, nil
}

// readRun walks a sparse.run body once, in place, into the entries
// handleRun resolves.
func readRun(body []byte) (sparseReader, []runEntry, error) {
	req, err := readSparse(body)
	if err != nil {
		return req, nil, err
	}
	run := make([]runEntry, req.left)
	for i := range run {
		if run[i].sparseEntryView, err = req.next(); err != nil {
			return req, nil, err
		}
	}
	return req, run, nil
}

// accountLoad folds one call's entries into the live load summary,
// apportioning the call's sparse-op time by lookup share.
func (s *SparseShard) accountLoad(run []runEntry, opDur time.Duration) {
	total := 0
	for i := range run {
		total += len(run[i].Indices)
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	for i := range run {
		lookups := len(run[i].Indices)
		var svc time.Duration
		if total > 0 {
			svc = time.Duration(float64(opDur) * float64(lookups) / float64(total))
		}
		key := tableKey{id: int(run[i].TableID), part: int(run[i].PartIndex)}
		s.load.Add(key.loadKey(), sharding.TableLoad{
			Lookups: int64(lookups), ServiceTime: svc, Calls: 1,
		})
	}
}

func (s *SparseShard) handleLoad(_ trace.Context, body []byte) ([]byte, error) {
	req, err := decodeMsg[LoadRequest](body)
	if err != nil {
		return nil, err
	}
	out := EncodeLoadSummary(s.LoadSnapshot(req.Reset))
	if req.Reset {
		// A reset collection marks a rebalance window boundary: the
		// just-collected window is the freshest full picture of per-table
		// heat, so re-apportion the cache budget from it — the periodic
		// retier that lets a recently migrated-in table earn a real share.
		s.retier()
	}
	return out, nil
}

// MaterializeShards builds the sparse shards' table storage from a model
// and a distributed plan. Row-partitioned tables are partitioned once and
// the parts handed to their shards. Only fp32 Dense tables can be
// partitioned (quantized models are served whole-table, as in the paper's
// compression experiment which is singular-only).
func MaterializeShards(m *model.Model, plan *sharding.Plan, recs []*trace.Recorder) ([]*SparseShard, error) {
	return MaterializeShardsTiered(m, plan, recs, nil)
}

// MaterializeShardsTiered is MaterializeShards with a tiered-store
// config: each shard encodes its tables' cold tier to the planned
// precision at install and fronts them with hot-row caches under the
// shard-wide byte budget. A nil tier keeps plain fp32 serving.
func MaterializeShardsTiered(m *model.Model, plan *sharding.Plan, recs []*trace.Recorder, tier *TierConfig) ([]*SparseShard, error) {
	if !plan.IsDistributed() {
		return nil, fmt.Errorf("core: cannot materialize shards for a singular plan")
	}
	if len(recs) != plan.NumShards {
		return nil, fmt.Errorf("core: %d recorders for %d shards", len(recs), plan.NumShards)
	}
	shards := make([]*SparseShard, plan.NumShards)
	for i := range shards {
		shards[i] = NewSparseShard(ServiceName(i+1), recs[i])
	}
	// Partition each split table exactly once.
	var partsMu sync.Mutex
	parts := make(map[int][]*embedding.Part)
	partsOf := func(id, numParts int) ([]*embedding.Part, error) {
		partsMu.Lock()
		defer partsMu.Unlock()
		if p, ok := parts[id]; ok {
			if p[0].NumParts != numParts {
				return nil, fmt.Errorf("core: table %d partitioned twice with different counts", id)
			}
			return p, nil
		}
		dense, ok := m.Tables[id].(*embedding.Dense)
		if !ok {
			return nil, fmt.Errorf("core: table %d is not fp32 dense; cannot row-partition", id)
		}
		p := embedding.PartitionRows(dense, numParts)
		parts[id] = p
		return p, nil
	}
	for i := range plan.Shards {
		a := &plan.Shards[i]
		sh := shards[a.Shard-1]
		for _, id := range a.Tables {
			sh.AddTable(id, m.Tables[id])
		}
		for _, pr := range a.Parts {
			p, err := partsOf(pr.TableID, pr.NumParts)
			if err != nil {
				return nil, err
			}
			sh.AddPart(pr.TableID, pr.PartIndex, p[pr.PartIndex].Local)
		}
	}
	if tier != nil {
		// Tier after the full install, not per table: SetTier wraps the
		// whole set and apportions the cache budget once, instead of T
		// re-apportionments (each a table-set scan plus cache resizes)
		// while the set is still filling.
		for _, sh := range shards {
			sh.SetTier(tier)
		}
	}
	return shards, nil
}

// RankMethod is the main shard's scoring method name. A co-served
// deployment routes per model with RankMethodFor; HandleRank itself
// always sees the bare method (the router strips the suffix).
const RankMethod = "rank"

// RankMethodFor returns the wire method addressing one model of a
// multi-model deployment ("rank@DRM1"). An empty model yields the bare
// method, so single-model callers need no special case.
func RankMethodFor(model string) string {
	if model == "" {
		return RankMethod
	}
	return RankMethod + "@" + model
}

// SplitRankMethod parses a rank method into its model selector: bare
// "rank" yields ("", true), "rank@m" yields ("m", true), anything else
// is not a rank method.
func SplitRankMethod(method string) (model string, ok bool) {
	if method == RankMethod {
		return "", true
	}
	const pfx = RankMethod + "@"
	if len(method) > len(pfx) && method[:len(pfx)] == pfx {
		return method[len(pfx):], true
	}
	return "", false
}

// HandleRank is the shared wire handling for the "rank" method: decode
// and encode with the serde spans the paper attributes to the main
// shard, around any scoring function. Both the direct MainService and
// the serving frontend's Service route through it, so fronted and
// unfronted deployments record identical serde attribution.
func HandleRank(rec *trace.Recorder, ctx trace.Context, method string, body []byte,
	run func(trace.Context, *RankingRequest) ([]float32, error)) ([]byte, error) {
	if method != RankMethod {
		return nil, fmt.Errorf("core: main shard: unknown method %q", method)
	}
	desStart := rec.Now()
	req, err := DecodeRankingRequest(body)
	rec.Record(trace.Span{
		TraceID: ctx.TraceID, Layer: trace.LayerSerDe,
		Name: "rank/decode", Start: desStart, Dur: rec.Now().Sub(desStart),
	})
	if err != nil {
		return nil, err
	}
	scores, err := run(ctx, req)
	if err != nil {
		return nil, err
	}
	encStart := rec.Now()
	out := EncodeRankingResponse(&RankingResponse{Scores: scores})
	rec.Record(trace.Span{
		TraceID: ctx.TraceID, Layer: trace.LayerSerDe,
		Name: "rank/encode", Start: encStart, Dur: rec.Now().Sub(encStart),
	})
	return out, nil
}

// MainService adapts an Engine to rpc.Handler for the "rank" method,
// recording the request/response serde spans the paper attributes to the
// main shard.
type MainService struct {
	Engine *Engine
	Rec    *trace.Recorder
	// Tracer, when set, finishes each request's live trace with its
	// measured service latency (unfronted deployments; the frontend
	// finishes traces itself).
	Tracer *obs.Tracer
}

// Handle implements rpc.Handler.
func (s *MainService) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	start := time.Now() //lint:allow determinism end-to-end latency is tracer telemetry
	out, err := HandleRank(s.Rec, ctx, method, body, s.Engine.Execute)
	s.Tracer.Finish(ctx.TraceID, time.Since(start), err != nil) //lint:allow determinism e2e latency recorded for tracing only
	return out, err
}
