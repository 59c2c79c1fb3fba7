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

// forwardTarget routes lookups for a migrated-away table to the shard
// that now holds it.
type forwardTarget struct {
	service string
	caller  rpc.Caller
	// dim is the moved table's row width, kept from the copy the shard
	// held when the forward began: a response is laid out before the
	// destination answers, so a forwarded entry's shape must be known
	// here. 0 means the shard never held the table.
	dim int
}

// SparseShard serves pooled embedding lookups for the tables (and table
// partitions) a sharding plan assigns to it. Table storage is immutable
// once installed — the property Section III-A1 requires so shards can be
// replicated and restarted freely — but the *set* of tables a shard
// holds changes through staged transactions (stage.go): a driver fills
// shadow copies and commits them at a new forwarding epoch, and a
// migration source either double-reads its retained copy or forwards
// stragglers, so lookups in flight across a cutover are never wrong.
type SparseShard struct {
	// ShardName labels spans ("sparse3").
	ShardName string
	// slsName names the pooling operator's spans ("sls_sparse3").
	slsName string
	rec     *trace.Recorder
	// OpComputeScale stretches sparse-op time to model slower platforms
	// (burned as real CPU); 0 or 1 means no scaling.
	OpComputeScale float64
	// DialForward overrides how the shard connects to a forward
	// destination (tests inject in-process callers); nil uses rpc.Dial.
	DialForward func(addr string) (rpc.Caller, error)

	mu     sync.RWMutex
	tables map[tableKey]embedding.Table
	// staging holds every open transaction's shadow copies, committed or
	// aborted as a set (stage.go).
	staging  map[uint64]map[tableKey]*stagedTable
	forwards map[tableKey]*forwardTarget
	// tier, when non-nil, enables the tiered store: tables install behind
	// a hot-row cache over a (possibly quantized) cold tier. Guarded by mu.
	tier *TierConfig
	// fwdClients caches dialed forward callers per address so N moved
	// tables to one destination share one connection pool.
	fwdClients map[string]rpc.Caller

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
		ShardName:  name,
		slsName:    "sls_" + name,
		rec:        rec,
		tables:     make(map[tableKey]embedding.Table),
		staging:    make(map[uint64]map[tableKey]*stagedTable),
		forwards:   make(map[tableKey]*forwardTarget),
		fwdClients: make(map[string]rpc.Caller),
		load:       sharding.NewLoadSummary(),
	}
}

// shardMetrics is a sparse shard's live-telemetry handle set, under the
// "<shard>." namespace. All handles are nil (free no-ops) before SetObs.
type shardMetrics struct {
	runCalls *obs.Counter   // sparse.run requests served
	bags     *obs.Counter   // bags those requests asked about (local + forwarded entries)
	present  *obs.Counter   // of them, non-empty: the rows pooled and shipped
	runNs    *obs.Histogram // full handleRun duration (decode → encode)
	opNs     *obs.Histogram // local pooling-net execution time
	forwards *obs.Counter   // forward calls issued to destination shards

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
		forwards:   reg.Counter(p + "sparse.forwards"),
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

// InstallTable activates table storage under (id, part), clears any
// forward for the key (this shard is authoritative again), and bumps the
// forwarding epoch. Under a tier config the table is wrapped on the way
// in (cold-tier encoding plus a fresh, empty hot-row cache) and the
// shard's cache budget is re-apportioned.
func (s *SparseShard) InstallTable(id, part int, t embedding.Table) {
	s.mu.Lock()
	key := tableKey{id: id, part: part}
	s.tables[key] = s.tierWrap(id, t)
	delete(s.forwards, key)
	s.mu.Unlock()
	s.epoch.Add(1)
	s.retier()
}

// BeginForward routes future lookups for (id, part) to caller (serving
// the named destination shard). When release is set the local copy is
// dropped immediately; otherwise the shard keeps double-reading its
// retained copy — byte-identical to the destination's, since storage is
// immutable — until ReleaseTable.
func (s *SparseShard) BeginForward(id, part int, service string, caller rpc.Caller, release bool) {
	s.mu.Lock()
	key := tableKey{id: id, part: part}
	fwd := &forwardTarget{service: service, caller: caller}
	if t, ok := s.tables[key]; ok {
		fwd.dim = t.Dim()
	} else if prev, ok := s.forwards[key]; ok {
		fwd.dim = prev.dim // re-pointing a forward for a copy already released
	}
	s.forwards[key] = fwd
	if release {
		delete(s.tables, key)
	}
	s.mu.Unlock()
	s.epoch.Add(1)
	if release {
		// The released copy's cache died with it; what remains of the
		// budget redistributes over the tables still held.
		s.retier()
	}
}

// ReleaseTable drops the local copy of (id, part), leaving any forward
// in place — the end of a double-read grace window.
func (s *SparseShard) ReleaseTable(id, part int) {
	s.mu.Lock()
	delete(s.tables, tableKey{id: id, part: part})
	s.mu.Unlock()
	s.epoch.Add(1)
	s.retier()
}

// Epoch returns the shard's forwarding epoch: it advances on every
// install, forward, and release, so two reads bracketing a lookup prove
// no cutover interleaved.
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

// Close releases any forward-client connections the shard dialed.
func (s *SparseShard) Close() {
	s.mu.Lock()
	clients := s.fwdClients
	s.fwdClients = make(map[string]rpc.Caller)
	s.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// shardMethod is one row of the shard's wire surface.
type shardMethod struct {
	name   string
	handle func(*SparseShard, trace.Context, []byte) ([]byte, error)
	// control marks control-plane methods: Handle wraps them in a
	// LayerMigration span named after the method and prefixes their
	// errors. The serving path records its own serde and operator spans.
	control bool
	// counter names the per-shard counter of served calls ("" = none).
	counter string
}

// shardMethods is everything a sparse shard serves: the serving path,
// load collection, and the staged table-set transaction.
var shardMethods = []shardMethod{
	{MethodSparseRun, (*SparseShard).handleRun, false, ""},
	{MethodSparseLoad, (*SparseShard).handleLoad, true, ""},
	{MethodStageBegin, (*SparseShard).handleStageBegin, true, "stage.begins"},
	{MethodStagePut, (*SparseShard).handleStagePut, true, "stage.puts"},
	{MethodStageCommit, (*SparseShard).handleStageCommit, true, "stage.commits"},
	{MethodStageAbort, (*SparseShard).handleStageAbort, true, ""},
	{MethodTableList, (*SparseShard).handleTableList, true, ""},
	{MethodTableRead, (*SparseShard).handleTableRead, true, "table.reads"},
	{MethodTableForward, (*SparseShard).handleTableForward, true, ""},
}

// Handle implements rpc.Handler by dispatching through shardMethods.
func (s *SparseShard) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	for i := range shardMethods {
		m := &shardMethods[i]
		if m.name != method {
			continue
		}
		if !m.control {
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
// set: pooled locally, or by the shard that now holds the table.
type runEntry struct {
	sparseEntryView
	table   embedding.Table // non-nil → pool locally
	forward *forwardTarget  // used when table is nil
	out     []float32       // local entries: where the pooled rows are written
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
	// set: a cutover landing mid-request flips routing for the *next*
	// request, never within one. A forwarded entry's slot is sized like a
	// local one, from the lengths about to be forwarded.
	slots := make([]pooledSlot, len(run))
	var nLocal, bags, present int
	s.mu.RLock()
	for i := range run {
		e := &run[i]
		key := tableKey{id: int(e.TableID), part: int(e.PartIndex)}
		var dim int
		if tab, ok := s.tables[key]; ok {
			e.table, dim = tab, tab.Dim()
			nLocal++
		} else if fwd, ok := s.forwards[key]; ok && fwd.dim > 0 {
			e.forward, dim = fwd, fwd.dim
		} else {
			s.mu.RUnlock()
			return nil, fmt.Errorf("core: %s does not hold table %d part %d", s.ShardName, e.TableID, e.PartIndex)
		}
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

	// Issue forwarded entries first so the destination pools while this
	// shard runs its local net.
	var fwdWait func() error
	if nLocal < len(run) {
		fwdWait = s.issueForwards(ctx, req.head, run, slots, out)
	}

	if nLocal > 0 {
		// Build and run the pooling nets: per net named in the request,
		// one fused SLS over its locally held entries, executed through
		// the framework so Net Overhead and operator spans are attributed
		// exactly like the main shard's, net by net.
		netObs := &trace.NetObserver{R: s.rec, Ctx: ctx}
		opStart := time.Now() //lint:allow determinism op wall time feeds compute-scale burn and load stats, not results
		entries := make([]embedding.PoolEntry, 0, nLocal)
		for k, name := range req.nets {
			first := len(entries)
			for i := range run {
				e := &run[i]
				if e.table == nil || int(e.Net) != k {
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
				if run[i].table != nil {
					putF32s(slots[i].region(out), run[i].out)
				}
			}
			encDur += s.rec.Now().Sub(convStart)
		}
	}

	if fwdWait != nil {
		if err := fwdWait(); err != nil {
			return nil, err
		}
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

// accountLoad folds one call's locally served entries into the live load
// summary, apportioning the call's sparse-op time by lookup share.
func (s *SparseShard) accountLoad(run []runEntry, opDur time.Duration) {
	total := 0
	for i := range run {
		if run[i].table != nil {
			total += len(run[i].Indices)
		}
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	for i := range run {
		if run[i].table == nil {
			continue
		}
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

// issueForwards sends the request's forwarded entries to the shards that
// now hold their tables — a body spliced from the request's own net table
// (head) and the entries' own bytes — and returns a wait function that
// copies each answer's packed rows — still wire bytes, as many as the
// forwarded bags imply or the answer is refused — into its region of out.
func (s *SparseShard) issueForwards(ctx trace.Context, head []byte, run []runEntry, slots []pooledSlot, out []byte) func() error {
	// Group entries per destination caller so one straggler batch costs
	// one hop per destination.
	type group struct {
		target *forwardTarget
		idx    []int // positions in the request
		call   *rpc.Call
		issue  time.Time
	}
	var groups []*group
	byCaller := make(map[rpc.Caller]*group)
	for i := range run {
		fwd := run[i].forward
		if fwd == nil {
			continue
		}
		g := byCaller[fwd.caller]
		if g == nil {
			g = &group{target: fwd}
			byCaller[fwd.caller] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}
	for _, g := range groups {
		entries := make([][]byte, len(g.idx))
		for k, i := range g.idx {
			entries[k] = run[i].wire
		}
		g.issue = s.rec.Now()
		g.call = g.target.caller.Go(&rpc.Request{
			Method: MethodSparseRun, TraceID: ctx.TraceID, CallID: s.rec.NextID(),
			Body: spliceSparseRequest(head, entries),
		})
		s.met.forwards.Inc()
	}
	return func() error {
		for _, g := range groups {
			<-g.call.Done
			s.rec.Record(trace.Span{
				TraceID: ctx.TraceID, CallID: g.call.Req.CallID, Layer: trace.LayerMigration,
				Name: "forward/" + g.target.service, Start: g.issue, Dur: s.rec.Now().Sub(g.issue),
			})
			if g.call.Err != nil {
				return fmt.Errorf("core: %s forwarding to %s: %w", s.ShardName, g.target.service, g.call.Err)
			}
			pooled, err := readPooled(g.call.Resp.Body)
			if err != nil {
				return fmt.Errorf("core: %s forwarding to %s: %w", s.ShardName, g.target.service, err)
			}
			if pooled.left != len(g.idx) {
				return fmt.Errorf("core: %s forward returned %d entries for %d", s.ShardName, pooled.left, len(g.idx))
			}
			for _, i := range g.idx {
				got, rows, err := pooled.next()
				if err != nil {
					return fmt.Errorf("core: %s forwarding to %s: %w", s.ShardName, g.target.service, err)
				}
				want := &slots[i]
				if got.TableID != want.TableID || got.PartIndex != want.PartIndex || got.Rows != want.Rows || got.Cols != want.Cols || got.n != want.n {
					return fmt.Errorf("core: %s forward to %s answered table %d part %d as %d values of %dx%d, want table %d part %d as %d of %dx%d",
						s.ShardName, g.target.service, got.TableID, got.PartIndex, got.n, got.Rows, got.Cols,
						want.TableID, want.PartIndex, want.n, want.Rows, want.Cols)
				}
				copy(want.region(out), rows)
			}
		}
		return nil
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

// forwardCaller returns a cached (or freshly dialed) caller for a
// forward destination address. The dial happens outside s.mu: an
// unreachable destination must stall only this control-plane call, not
// every sparse.run blocked behind the table lock.
func (s *SparseShard) forwardCaller(addr string) (rpc.Caller, error) {
	s.mu.RLock()
	c, ok := s.fwdClients[addr]
	s.mu.RUnlock()
	if ok {
		return c, nil
	}
	dial := s.DialForward
	if dial == nil {
		dial = func(a string) (rpc.Caller, error) { return rpc.Dial(a, nil) }
	}
	fresh, err := dial(addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if c, ok := s.fwdClients[addr]; ok {
		// Lost the dial race; keep the first connection.
		s.mu.Unlock()
		fresh.Close()
		return c, nil
	}
	s.fwdClients[addr] = fresh
	s.mu.Unlock()
	return fresh, nil
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
	if method != "rank" {
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
