package core

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embedding"
	"repro/internal/mmapfile"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// sortedTableKeys returns m's keys in (table, part) order, for walks
// whose outcome must not depend on map iteration order.
func sortedTableKeys[V any](m map[sharding.TableLoadKey]V) []sharding.TableLoadKey {
	return slices.SortedFunc(maps.Keys(m), sharding.TableLoadKey.Compare)
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
	tables map[sharding.TableLoadKey]embedding.Table
	// staging holds every open transaction's shadow copies, committed or
	// aborted as a set (stage.go).
	staging map[uint64]map[sharding.TableLoadKey]*stagedTable
	// tier, when non-nil, enables the tiered store: tables install behind
	// a hot-row cache over a (possibly quantized) cold tier. Guarded by mu.
	tier *TierConfig
	// image is the shard image the booted tables view (OwnImage);
	// Close releases it. Guarded by mu.
	image io.Closer

	epoch atomic.Uint64
	// modelVersion is the highest committed model-version transaction —
	// the freshness gauge exported as "<shard>.model_version".
	modelVersion atomic.Uint64

	// met holds the shard's metric handles (nil no-ops until SetObs).
	met shardMetrics
}

// NewSparseShard returns an empty shard recording to rec.
func NewSparseShard(name string, rec *trace.Recorder) *SparseShard {
	return &SparseShard{
		ShardName: name,
		slsName:   "sls_" + name,
		rec:       rec,
		tables:    make(map[sharding.TableLoadKey]embedding.Table),
		staging:   make(map[uint64]map[sharding.TableLoadKey]*stagedTable),
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

// InstallTable activates table storage under (id, part) — part 0 of a
// whole table, or one row-partition — and bumps the epoch. Under a tier
// config the table must be stored in its planned encoding; it is wrapped
// on the way in (a fresh, empty hot-row cache) and the shard's cache
// budget is re-apportioned.
func (s *SparseShard) InstallTable(id, part int, t embedding.Table) error {
	s.mu.Lock()
	t, err := s.tierWrap(id, t)
	if err == nil {
		s.tables[sharding.TableLoadKey{TableID: id, PartIndex: part}] = t
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.epoch.Add(1)
	s.retier()
	return nil
}

// ReleaseTable drops the shard's copy of (id, part) — a migration
// source's last step, once no request routed to it under the old plan is
// running — and reports whether it held one. The copy's cache dies with
// it; the rest of the budget redistributes over the tables still held.
func (s *SparseShard) ReleaseTable(id, part int) bool {
	key := sharding.TableLoadKey{TableID: id, PartIndex: part}
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

// OwnImage hands the shard the image its tables view (OpenShardFile's
// closer, or a model boot's in-memory image): Close releases it with
// them.
func (s *SparseShard) OwnImage(image io.Closer) {
	s.mu.Lock()
	s.image = image
	s.mu.Unlock()
}

// Close drops any open staging — a transaction its driver never ended
// holds table-sized buffers — and releases the shard's image, with the
// tables that view it. Call it once no server serves the shard.
func (s *SparseShard) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.staging)
	if s.image != nil {
		clear(s.tables)
		s.image.Close()
		s.image = nil
	}
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
// then the staged table-set transaction. DESIGN.md's method table and the
// control-plane fuzz corpus are tested against it.
var shardMethods = []shardMethod{
	{name: MethodSparseRun, handle: (*SparseShard).handleRun, plane: servingPlane},
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
// pooled from its own bag list into its own region; answers match entries
// by position, so nothing downstream confuses them. The main shard never
// sends such a list.
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
		tab, ok := s.tables[sharding.TableLoadKey{TableID: int(e.TableID), PartIndex: int(e.PartIndex)}]
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
	opStart := time.Now() //lint:allow determinism op wall time feeds compute-scale burn and a histogram, not results
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
	s.met.opNs.Observe(int64(time.Since(opStart))) //lint:allow determinism measured latency goes to a histogram only

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

// MaterializeShardsTiered builds the sparse shards' table storage from a
// model and a distributed plan: each shard's units (planUnits: a whole
// fp32 table the model holds is shared, any other unit drawn; quantized
// models are served whole, by a singular plan, as in the paper's
// compression experiment), tiered by tier when it is non-nil. A nil
// recorder is a shard served elsewhere, left nil. A plan that encodes no
// table serves those rows; otherwise each shard boots from a v2 image of
// its tables in their planned encodings, built in anonymous memory
// (buildShardImage) and parsed as OpenShardFile parses a file: the rows
// stay off the Go heap, no file is written, and the shard owns the image
// until Close.
func MaterializeShardsTiered(m *model.Model, plan *sharding.Plan, recs []*trace.Recorder, tier *TierConfig) ([]*SparseShard, error) {
	if !plan.IsDistributed() {
		return nil, fmt.Errorf("core: cannot materialize shards for a singular plan")
	}
	if len(recs) != plan.NumShards {
		return nil, fmt.Errorf("core: %d recorders for %d shards", len(recs), plan.NumShards)
	}
	encoded := tier != nil && slices.ContainsFunc(m.Config.Tables, func(t model.TableSpec) bool { return planEnc(tier.Plan, t.ID) != TierEncFP32 })
	shards := make([]*SparseShard, plan.NumShards)
	for i, rec := range recs {
		var err error
		switch {
		case rec == nil:
			continue
		case encoded:
			var img *mmapfile.File
			if img, err = buildShardImage(m, plan, i+1, tier.Plan); err == nil {
				var image io.Closer
				if shards[i], _, image, err = bootImage(img, rec); err == nil {
					shards[i].OwnImage(image)
				}
			}
		default:
			sf := &ShardFileData{Shard: i + 1}
			if sf.Tables, err = planUnits(m, plan, i+1); err == nil {
				shards[i] = sf.NewShard(rec)
			}
		}
		// Tier after the full install: one wrap and budget split a shard.
		if err == nil && tier != nil {
			err = shards[i].SetTier(tier)
		}
		if err != nil {
			for _, sh := range shards {
				if sh != nil {
					sh.Close()
				}
			}
			return nil, err
		}
	}
	return shards, nil
}

// RankMethod is the main shard's scoring method name.
const RankMethod = "rank"

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
