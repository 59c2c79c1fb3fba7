package core

import (
	"fmt"
	"slices"
	"strings"
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
	"repro/internal/workload"
)

// ServiceName returns the registry name for a sparse shard number.
func ServiceName(shard int) string { return fmt.Sprintf("sparse%d", shard) }

// EngineConfig configures a main-shard engine.
type EngineConfig struct {
	// BatchSize overrides the model's production-default batch size; 0
	// keeps the default. It cuts the dense work into parallel batches and
	// nothing else: the sparse calls cover the whole request. Section
	// VI-F's single-batch experiments set this to a value at or above the
	// largest request.
	BatchSize int
	// PaperSchedule issues sparse calls where the paper's Caffe2 nets do:
	// every batch makes its own call per net per shard, after the net's
	// bottom MLP, so the batch size sets the RPC count — the quantity
	// Figs. 6–16 vary. Only internal/experiments sets it; the default is
	// one call per shard per request, issued at admission.
	PaperSchedule bool
	// Recorder receives main-shard spans; required.
	Recorder *trace.Recorder
	// ClientFor resolves a sparse shard service name to a connected RPC
	// caller (a plain client, or a hedged replica set). Required for
	// distributed plans.
	ClientFor func(service string) (rpc.Caller, error)
	// Obs receives the engine's live metrics (engine.* namespace). Nil or
	// obs.Discard() turns instrumentation into no-op nil handles.
	Obs *obs.Registry
}

// engineMetrics is the engine's live-telemetry handle set. All handles
// are nil (free no-ops) when the engine runs without a registry.
type engineMetrics struct {
	requests *obs.Counter // engine executions (a coalesced batch counts once)
	batches  *obs.Counter // sub-batch executions (runBatch calls)

	coalesceNs    *obs.Histogram // assembling the combined request
	executeNs     *obs.Histogram // coalesced engine execution, admission to scores
	demuxNs       *obs.Histogram // splitting scores back per request
	batchRequests *obs.Histogram // requests per coalesced execution
	batchItems    *obs.Histogram // items per coalesced execution

	rpcCalls         *obs.Counter   // sparse RPC calls issued
	rpcOutstandingNs *obs.Histogram // per-call outstanding time at the main shard
	rpcCallsPerReq   *obs.Histogram // sparse RPC calls issued per execution (0 when singular)
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	return engineMetrics{
		requests:         r.Counter("engine.requests"),
		batches:          r.Counter("engine.batches"),
		coalesceNs:       r.Histogram("engine.coalesce_ns"),
		executeNs:        r.Histogram("engine.execute_ns"),
		demuxNs:          r.Histogram("engine.demux_ns"),
		batchRequests:    r.Histogram("engine.batch_requests"),
		batchItems:       r.Histogram("engine.batch_items"),
		rpcCalls:         r.Counter("engine.rpc.calls"),
		rpcOutstandingNs: r.Histogram("engine.rpc.outstanding_ns"),
		rpcCallsPerReq:   r.Histogram("engine.rpc.calls_per_request"),
	}
}

// Engine executes ranking requests for one model under one sharding plan.
// It is the main shard: dense layers run locally; sparse operators either
// run in-line (singular) or fan out through asynchronous RPC operators,
// one per sparse shard per request.
// Engines are safe for concurrent Execute calls, and the plan can be
// swapped live via Reroute: each request reads the program pointer once,
// so a rebalance cutover flips routing between requests, never within
// one.
type Engine struct {
	model *model.Model
	cfg   EngineConfig
	// params holds the dense-layer parameters compiled into programs —
	// initially the model's, replaced as a unit by SwapDense. Guarded by
	// rerouteMu for writers; compile reads it under the same lock.
	params []model.NetParams
	// prog holds the compiled (plan, nets) program; Reroute swaps it
	// atomically under rerouteMu.
	prog      atomic.Pointer[engineProgram]
	rerouteMu sync.Mutex
	// retired holds the running counts of the plans Reroute swapped out
	// whose executions have not all finished. Guarded by rerouteMu.
	retired []*atomic.Int64
	// hashedNames[tid] names table tid's hashed bags in a singular batch's
	// workspace, precomputed so per-batch setup does no string formatting.
	hashedNames []string
	// combined recycles the coalesced-request buffers Admit assembles
	// (batch.go); shapes depend only on the model, so the pool
	// survives reroutes.
	combined sync.Pool
	// met holds the engine's metric handles (nil no-ops without a
	// registry).
	met engineMetrics
	// lookups counts, per placement unit, the indices the engine's
	// sparse calls have sent it since the last Load(true). compile adds a
	// unit's counter the first time a plan names it, so Reroute and
	// SwapDense recompiles count into the same ones.
	lookupsMu sync.Mutex
	lookups   map[sharding.TableLoadKey]*atomic.Int64
}

// engineProgram is one compiled routing generation: the plan and its
// per-net programs, swapped as a unit, plus a pool of recycled
// workspaces — batches executing under this generation reuse the dense
// output storage an earlier batch left under each blob name instead of
// allocating.
type engineProgram struct {
	plan       *sharding.Plan
	nets       []*netProgram
	workspaces sync.Pool
	// running counts the executions routed under plan. SwapDense
	// recompiles share it: they keep the plan, so their executions call
	// the same shards for the same tables.
	running *atomic.Int64
}

// netProgram is the compiled form of one net under the plan. Static
// operators (dense layers, in-line SLS) are built once and shared across
// batches — they are stateless against the workspace; the hash and the
// asynchronous RPC operators are constructed per request because they
// carry its bags, trace context and block tables.
type netProgram struct {
	spec   model.NetSpec
	params model.NetParams
	tables []netTable // this net's tables, ID order
	// embCols is the width of the net's pooled embeddings: ΣDim.
	embCols int
	// interactSlots are the slots (indexes in tables) of the tables joining
	// the pairwise interaction, all of one Dim.
	interactSlots []int
	// call is the sparse call plan covering this net under a distributed
	// plan, and callPos the net's position in it.
	call    *callPlan
	callPos int
	// preOps run before embedding access; postOps after. Both are shared
	// across batches. slsOp is the singular in-line fused op (nil when
	// distributed).
	preOps  []nn.Op
	slsOp   nn.Op
	postOps []nn.Op
	embBlob string
	outBlob string
	lastNet bool
}

// netTable is one of a net's tables as the program lays it out.
type netTable struct {
	model.TableSpec
	// colOff is where the table's columns start among the net's pooled
	// embeddings.
	colOff int
	// sources counts pooling contributors (1 for a whole table, NumParts
	// for a partitioned one).
	sources int
}

type remoteGroupSpec struct {
	service  string
	op       string // the group's RPC operator and span name
	decodeOp string // op + "/decode", the span name of its response scatter
	client   rpc.Caller
	entries  []groupEntry
	// lookups[i] is entries[i]'s unit's counter in the engine's ledger.
	lookups []*atomic.Int64
}

// NewEngine compiles a model + plan into an executable engine, resolving
// sparse shard clients eagerly so wiring failures surface at startup.
func NewEngine(m *model.Model, plan *sharding.Plan, cfg EngineConfig) (*Engine, error) {
	if cfg.Recorder == nil {
		return nil, fmt.Errorf("core: engine requires a recorder")
	}
	e := &Engine{model: m, cfg: cfg, params: m.NetParams, met: newEngineMetrics(cfg.Obs), lookups: make(map[sharding.TableLoadKey]*atomic.Int64)}
	e.hashedNames = make([]string, len(m.Config.Tables))
	for i := range m.Config.Tables {
		e.hashedNames[i] = fmt.Sprintf("hashed_%d", i)
	}
	prog, err := e.compile(plan)
	if err != nil {
		return nil, err
	}
	e.prog.Store(prog)
	return e, nil
}

// drainBound caps how long Reroute waits for the executions routed under
// earlier plans. Tests lower it.
var drainBound = 10 * time.Second

// Reroute recompiles the engine against a new sharding plan, swaps it in
// atomically — the main-shard half of an online-resharding cutover — and
// returns once no execution routed under an earlier plan is still
// running, so the migration sources may then drop their old copies. A
// drain that outlasts drainBound is an error; the new plan stays in.
func (e *Engine) Reroute(plan *sharding.Plan) error {
	e.rerouteMu.Lock()
	defer e.rerouteMu.Unlock()
	prog, err := e.compile(plan)
	if err != nil {
		return fmt.Errorf("core: reroute: %w", err)
	}
	e.retired = append(e.retired, e.prog.Swap(prog).running)
	for waited := time.Duration(0); ; waited += time.Millisecond {
		e.retired = slices.DeleteFunc(e.retired, func(n *atomic.Int64) bool { return n.Load() == 0 })
		if len(e.retired) == 0 {
			return nil
		}
		if waited >= drainBound {
			return fmt.Errorf("core: reroute: requests routed under an earlier plan still running after %v", drainBound)
		}
		time.Sleep(time.Millisecond)
	}
}

// SwapDense atomically replaces the dense-layer parameters (bottom/top
// MLPs and projection) with a freshly published set of identical shapes,
// recompiling the current plan — the dense-weight half of a model
// freshness publish. Requests already executing finish on the old
// program; the next request sees the new weights. Embedding deltas
// travel separately as staged transactions (Publisher).
func (e *Engine) SwapDense(params []model.NetParams) error {
	e.rerouteMu.Lock()
	defer e.rerouteMu.Unlock()
	if len(params) != len(e.params) {
		return fmt.Errorf("core: swap dense: %d nets, engine has %d", len(params), len(e.params))
	}
	for i := range params {
		if err := sameDenseShapes(&e.params[i], &params[i]); err != nil {
			return fmt.Errorf("core: swap dense: net %d: %w", i, err)
		}
	}
	old, cur := e.params, e.prog.Load()
	e.params = params
	prog, err := e.compile(cur.plan)
	if err != nil {
		e.params = old
		return fmt.Errorf("core: swap dense: %w", err)
	}
	prog.running = cur.running
	e.prog.Store(prog)
	return nil
}

// sameDenseShapes checks a replacement net-parameter set is layer-for-
// layer shape-identical to the current one.
func sameDenseShapes(cur, next *model.NetParams) error {
	checkFC := func(what string, a, b model.FCParams) error {
		if a.W.Rows != b.W.Rows || a.W.Cols != b.W.Cols || len(a.B) != len(b.B) {
			return fmt.Errorf("%s shape %dx%d+%d, want %dx%d+%d",
				what, b.W.Rows, b.W.Cols, len(b.B), a.W.Rows, a.W.Cols, len(a.B))
		}
		return nil
	}
	if len(cur.Bottom) != len(next.Bottom) || len(cur.Top) != len(next.Top) {
		return fmt.Errorf("layer counts %d/%d, want %d/%d", len(next.Bottom), len(next.Top), len(cur.Bottom), len(cur.Top))
	}
	for i := range cur.Bottom {
		if err := checkFC(fmt.Sprintf("bottom[%d]", i), cur.Bottom[i], next.Bottom[i]); err != nil {
			return err
		}
	}
	if err := checkFC("proj", cur.Proj, next.Proj); err != nil {
		return err
	}
	for i := range cur.Top {
		if err := checkFC(fmt.Sprintf("top[%d]", i), cur.Top[i], next.Top[i]); err != nil {
			return err
		}
	}
	return nil
}

// compile builds one routing generation for a plan.
func (e *Engine) compile(plan *sharding.Plan) (*engineProgram, error) {
	m := e.model
	if err := plan.Validate(&m.Config); err != nil {
		return nil, fmt.Errorf("core: invalid plan: %w", err)
	}
	if i := slices.Index(m.Tables, nil); i >= 0 && !plan.IsDistributed() {
		return nil, fmt.Errorf("core: a singular plan serves table %d in-line, and the model did not draw it", i)
	}
	prog := &engineProgram{plan: plan, running: new(atomic.Int64)}
	prevOut := ""
	for i, ns := range m.Config.Nets {
		np := &netProgram{
			spec:    ns,
			params:  e.params[i],
			embBlob: "emb_" + ns.Name,
			outBlob: "out_" + ns.Name,
			lastNet: i == len(m.Config.Nets)-1,
		}
		specs := m.Config.NetTables(ns.Name)
		interact := pickInteract(specs, ns.InteractFeatures)
		for slot, t := range specs {
			if slices.Contains(interact, t.ID) {
				np.interactSlots = append(np.interactSlots, slot)
			}
			np.tables = append(np.tables, netTable{TableSpec: t, colOff: np.embCols})
			np.embCols += t.Dim
		}
		e.compileOps(plan, np, prevOut)
		prevOut = np.outBlob
		prog.nets = append(prog.nets, np)
	}
	if plan.IsDistributed() {
		if e.cfg.ClientFor == nil {
			return nil, fmt.Errorf("core: distributed plan requires ClientFor")
		}
		// One call plan over every net, or the paper's one per net.
		per := len(prog.nets)
		if e.cfg.PaperSchedule {
			per = 1
		}
		for i := 0; i < len(prog.nets); i += per {
			if err := e.compileCall(prog.nets[i:i+per], plan); err != nil {
				return nil, err
			}
		}
	}
	return prog, nil
}

// pickInteract chooses the first k tables sharing the net's tail-table
// dimension (pairwise dots need equal dims; mixed-dim nets like DRM3
// exclude the odd-sized dominating table).
func pickInteract(tables []model.TableSpec, k int) []int {
	if len(tables) == 0 || k <= 0 {
		return nil
	}
	dim := tables[len(tables)-1].Dim
	var out []int
	for _, t := range tables {
		if t.Dim == dim {
			out = append(out, t.ID)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

// compileCall builds the call plan covering nets: per sparse shard, the
// entries of those nets the shard serves, net by net.
func (e *Engine) compileCall(nets []*netProgram, plan *sharding.Plan) error {
	cp := &callPlan{nets: nets}
	slotOf := make([]map[int]int, len(nets)) // per net: table ID → index in np.tables
	for pos, np := range nets {
		np.call, np.callPos = cp, pos
		cp.names = append(cp.names, np.spec.Name)
		slotOf[pos] = make(map[int]int, len(np.tables))
		for slot, t := range np.tables {
			slotOf[pos][t.ID] = slot
		}
	}
	cp.label = strings.Join(cp.names, "+")
	for i := range plan.Shards {
		a := &plan.Shards[i]
		var entries []groupEntry
		var lookups []*atomic.Int64
		for pos, np := range nets {
			for u := range a.Units() {
				if slot, ok := slotOf[pos][u.TableID]; ok {
					entries = append(entries, groupEntry{net: pos, slot: slot, PartRef: u})
					lookups = append(lookups, e.counter(u.Key()))
					np.tables[slot].sources++
				}
			}
		}
		if len(entries) == 0 {
			continue // shard holds no tables of these nets
		}
		svc := ServiceName(a.Shard)
		client, err := e.cfg.ClientFor(svc)
		if err != nil {
			return fmt.Errorf("core: resolving %s: %w", svc, err)
		}
		op := "rpc_" + cp.label + "_" + svc
		cp.groups = append(cp.groups, remoteGroupSpec{service: svc, op: op, decodeOp: op + "/decode", client: client, entries: entries, lookups: lookups})
	}
	for _, np := range nets {
		for _, t := range np.tables {
			if t.sources == 0 {
				return fmt.Errorf("core: table %d of %s unserved by plan", t.ID, np.spec.Name)
			}
		}
	}
	return nil
}

// compileOps builds the static (batch-shareable) operator lists.
func (e *Engine) compileOps(plan *sharding.Plan, np *netProgram, prevOut string) {
	netName := np.spec.Name

	// --- preOps: dense preprocessing and the bottom MLP. ---
	var pre []nn.Op
	pre = append(pre, &nn.ScaleClip{
		OpName: "scaleclip_" + netName, Scale: 1.0 / 8, Lo: -4, Hi: 4, Blob: "dense_" + netName,
	})
	in := "dense_" + netName
	if prevOut != "" {
		pre = append(pre, &nn.ConcatOp{
			OpName: "concat_in_" + netName, Inputs: []string{in, prevOut}, Output: "in_" + netName,
		})
		in = "in_" + netName
	}
	cur := in
	for li, fc := range np.params.Bottom {
		out := fmt.Sprintf("bot%d_%s", li, netName)
		pre = append(pre, &nn.FusedFC{
			OpName: fmt.Sprintf("fc_bot%d_%s", li, netName),
			W:      fc.W, B: fc.B, Act: nn.ActReLU, Input: cur, Output: out,
		})
		cur = out
	}
	bottom := cur
	np.preOps = pre

	// --- in-line fused SLS for the singular configuration. The output
	// blob is materialized by a separate Fill operator, as Caffe2 does,
	// so storage cost attributes to Fill rather than Sparse. ---
	if !plan.IsDistributed() {
		np.preOps = append(np.preOps, &nn.AllocEmb{
			OpName: "fill_emb_" + netName, RowsFrom: e.hashedNames[np.tables[0].ID],
			Cols: np.embCols, Output: np.embBlob,
		})
		sls := &nn.FusedSLS{OpName: "sls_" + netName, Output: np.embBlob, Cols: np.embCols}
		for _, t := range np.tables {
			sls.Entries = append(sls.Entries, nn.FusedSLSEntry{
				Table: e.model.Tables[t.ID], InputBags: e.hashedNames[t.ID], ColOffset: t.colOff,
			})
		}
		np.slsOp = sls
	}

	// --- postOps: projection, interaction, top MLP, output head. The FC
	// stacks compile to FusedFC: bias and activation run inside the GEMM
	// workers' tile epilogues (bitwise identical to the FC → Activation
	// pairs they replace), and outputs reuse the workspace's storage. ---
	var post []nn.Op
	post = append(post, &nn.EmbFC{OpName: "fc_proj_" + netName, W: np.params.Proj.W, B: np.params.Proj.B, Input: np.embBlob, Output: "proj_" + netName})
	post = append(post, &nn.Interaction{
		OpName: "interact_" + netName, Emb: np.embBlob, FeatureSlots: np.interactSlots,
		Passthrough: bottom, Output: "int_" + netName,
	})
	post = append(post, &nn.ConcatOp{
		OpName: "concat_top_" + netName, Inputs: []string{"proj_" + netName, "int_" + netName}, Output: "top0_" + netName,
	})
	cur = "top0_" + netName
	for li, fc := range np.params.Top {
		out := fmt.Sprintf("top%d_%s", li+1, netName)
		act := nn.ActNone
		switch {
		case li < len(np.params.Top)-1:
			act = nn.ActReLU
		case np.lastNet:
			// The output head: the final FC fuses the sigmoid directly.
			act = nn.ActSigmoid
		}
		post = append(post, &nn.FusedFC{
			OpName: fmt.Sprintf("fc_top%d_%s", li, netName),
			W:      fc.W, B: fc.B, Act: act, Input: cur, Output: out,
		})
		cur = out
	}
	if np.lastNet && len(np.params.Top) == 0 {
		// Degenerate top stack: nothing to fuse the head into.
		post = append(post, &nn.Activation{OpName: "sigmoid_" + netName, Func: nn.ActSigmoid, Blob: cur})
	}
	post = append(post, &renameOp{name: "output_" + netName, from: cur, to: np.outBlob})
	np.postOps = post
}

// FromWorkload converts a generated workload request to the form the
// engine serves: every table's authored bags flattened, once, into one
// array shared by all the tables — every length, then every index — the
// whole of what an in-process caller pays for not arriving over the wire.
func FromWorkload(req *workload.Request) *RankingRequest {
	ids := make([]int, 0, len(req.Bags))
	bags, indices := 0, 0
	for tid, tb := range req.Bags {
		ids = append(ids, tid)
		bags += len(tb)
		indices += embedding.TotalLookups(tb)
	}
	slices.Sort(ids)
	out := &RankingRequest{
		ID: req.ID, Items: int32(req.Items),
		Dense: req.Dense,
		Bags:  make([]TableBags, len(ids)),
	}
	flat := make([]int32, bags+indices)
	lens, idx := flat[:bags:bags], flat[bags:]
	for i, tid := range ids {
		tb, n := req.Bags[tid], 0
		for b, bag := range tb {
			lens[b] = int32(len(bag.Indices))
			n += copy(idx[n:], bag.Indices)
		}
		out.Bags[i] = TableBags{TableID: int32(tid), BagList: embedding.BagList{Lens: lens[:len(tb):len(tb)], Indices: idx[:n:n]}}
		lens, idx = lens[len(tb):], idx[n:]
	}
	return out
}

// BatchSize returns the effective items-per-batch.
func (e *Engine) BatchSize() int {
	if e.cfg.BatchSize > 0 {
		return e.cfg.BatchSize
	}
	return e.model.Config.DefaultBatch
}

// counter returns placement unit k's lookup counter, adding it on first
// use.
func (e *Engine) counter(k sharding.TableLoadKey) *atomic.Int64 {
	e.lookupsMu.Lock()
	defer e.lookupsMu.Unlock()
	c := e.lookups[k]
	if c == nil {
		c = new(atomic.Int64)
		e.lookups[k] = c
	}
	return c
}

// Load returns the lookups the engine's sparse calls have sent each
// placement unit since the last reset — under every schedule, a hedged
// call counted once — leaving out units sent none. reset zeroes each
// counter as it reads it, so no lookup falls between two windows.
func (e *Engine) Load(reset bool) *sharding.LoadSummary {
	e.lookupsMu.Lock()
	defer e.lookupsMu.Unlock()
	sum := sharding.NewLoadSummary()
	for k, c := range e.lookups {
		n := c.Load()
		if reset {
			n = c.Swap(0)
		}
		if n != 0 {
			sum.Add(k, n)
		}
	}
	return sum
}

// Plan returns the engine's current sharding plan.
func (e *Engine) Plan() *sharding.Plan { return e.prog.Load().plan }

// Config returns the engine's model configuration.
func (e *Engine) Config() *model.Config { return &e.model.Config }

// Validate checks a request's shape against the model without running it.
func (e *Engine) Validate(req *RankingRequest) error {
	items := int(req.Items)
	if items <= 0 {
		return fmt.Errorf("core: request %d has no items", req.ID)
	}
	for _, ns := range e.model.Config.Nets {
		m := req.Dense[ns.Name]
		if m == nil || m.Rows != items || m.Cols != ns.DenseDim {
			return fmt.Errorf("core: request %d dense input for %s malformed", req.ID, ns.Name)
		}
	}
	for _, t := range e.model.Config.Tables {
		l, _ := req.BagsOf(int32(t.ID))
		if len(l.Lens) != items {
			return fmt.Errorf("core: request %d has %d bags for table %d (want %d)", req.ID, len(l.Lens), t.ID, items)
		}
		// A decoded request has this by construction; one built in process
		// is held to it here, so that everything after admission can move
		// lengths and indices without looking at them.
		if sum, _, ok := sumLens(l.Lens); !ok || sum != uint64(len(l.Indices)) {
			return fmt.Errorf("core: request %d table %d: bag lengths do not add up to its %d indices", req.ID, t.ID, len(l.Indices))
		}
	}
	return nil
}

// Execute runs one ranking request: its bags are hashed and its sparse
// calls issued once, at admission; the dense work is split into
// ⌈items/batch⌉ batches executed in parallel (the paper's batch-level
// parallelism), each batch running the model's nets sequentially over
// its row range of the request. It returns one score per item.
func (e *Engine) Execute(ctx trace.Context, req *RankingRequest) ([]float32, error) {
	if err := e.Validate(req); err != nil {
		return nil, err
	}
	return e.begin(ctx, req).run()
}

// execution is what the batches of one (possibly coalesced) request
// share.
type execution struct {
	e    *Engine
	prog *engineProgram
	ctx  trace.Context
	req  *RankingRequest
	obs  *trace.NetObserver
	// hash.Entries[tid].Out is table tid's hashed indices, every item's
	// back to back; the bag lengths over them are the request's own
	// (hashing leaves the bag structure alone).
	hash *nn.HashAllBags
	// batch is the items per batch, and cuts[tid*(nb+1)+k] is where batch
	// k's indices start among table tid's (k = nb: where they end). Only an
	// execution whose batches pool or fetch for themselves — a singular
	// plan, PaperSchedule — has cuts.
	batch int
	cuts  []int32
	// admitted is the request-level sparse fetch; nil for a singular plan
	// and under PaperSchedule, where each batch fetches for itself.
	admitted *sparseFetch
	// calls counts sparse calls issued; inflight their completion
	// goroutines.
	calls    atomic.Int64
	inflight sync.WaitGroup
	err      error // admission's, reported by run
}

// enter counts an execution under the current program and returns it.
// The recheck closes the race with Reroute: a count taken on a program
// swapped out meanwhile is backed out and retried, so once Reroute has
// swapped and then read a zero count, nothing can join the old plan.
func (e *Engine) enter() *engineProgram {
	for {
		p := e.prog.Load()
		p.running.Add(1)
		if e.prog.Load() == p {
			return p
		}
		p.running.Add(-1)
	}
}

// begin enters the current program — one per request: its calls and
// batches route under one plan even if Reroute lands mid-flight — and
// admits the validated request, which counts against the plan's drain
// until run returns.
func (e *Engine) begin(ctx trace.Context, req *RankingRequest) *execution {
	e.met.requests.Inc()
	x := &execution{e: e, prog: e.enter(), ctx: ctx, req: req, batch: e.BatchSize(), obs: &trace.NetObserver{R: e.cfg.Recorder, Ctx: ctx}}
	x.err = x.admit(int(req.Items))
	return x
}

// release waits until no call's goroutine is left, and only then stops
// the request counting against its plan's drain.
func (x *execution) release() {
	x.inflight.Wait()
	x.prog.running.Add(-1)
}

// run executes an admitted request's batches and releases it: scores or
// an error, no call's goroutine outlives it.
func (x *execution) run() ([]float32, error) {
	defer x.release()
	if x.err != nil {
		return nil, fmt.Errorf("core: request %d: %w", x.req.ID, x.err)
	}
	e, items := x.e, int(x.req.Items)
	b := x.batch
	nb := (items + b - 1) / b
	scores := make([]float32, items)
	errs := make([]error, nb)
	var wg sync.WaitGroup
	for bi := 0; bi < nb; bi++ {
		start, end := bi*b, min((bi+1)*b, items)
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			e.met.batches.Inc()
			errs[bi] = x.runBatch(scores[start:end], start)
		}(bi)
	}
	wg.Wait()
	e.met.rpcCallsPerReq.Observe(x.calls.Load())
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scores, nil
}

// admit runs the request-level work ahead of the batches: every table's
// indices are hashed once, into one flat array, and — bags being request
// inputs that wait on no dense compute — the request's sparse calls are
// issued right away, so the round trip overlaps every net's dense work up
// to its first consumer of pooled rows.
func (x *execution) admit(items int) error {
	tables := x.e.model.Config.Tables
	x.hash = &nn.HashAllBags{OpName: "hash", Entries: make([]nn.HashEntry, len(tables))}
	for _, t := range tables {
		l, _ := x.req.BagsOf(int32(t.ID))
		x.hash.Entries[t.ID] = nn.HashEntry{Buckets: int32(t.Rows), In: l.Indices}
	}
	ops := []nn.Op{x.hash}
	if x.prog.plan.IsDistributed() && !x.e.cfg.PaperSchedule {
		x.admitted = x.newFetch(x.prog.nets[0].call, 0, items)
		ops = append(ops, x.admitted.ops()...)
	} else {
		x.cutBatches(items)
	}
	return (&nn.Net{NetName: "admit", Ops: ops}).Run(nil, x.obs)
}

// cutBatches finds, in one pass over every table's lengths, where each
// batch's indices start, so that a batch's row range of a bag list is two
// slice expressions (bags).
func (x *execution) cutBatches(items int) {
	nb := (items + x.batch - 1) / x.batch
	x.cuts = make([]int32, len(x.hash.Entries)*(nb+1))
	for tid := range x.hash.Entries {
		l, _ := x.req.BagsOf(int32(tid))
		cuts, at := x.cuts[tid*(nb+1):][:nb+1], int32(0)
		for k := 0; k < nb; k++ {
			cuts[k] = at
			for _, n := range l.Lens[k*x.batch : min((k+1)*x.batch, items)] {
				at += n
			}
		}
		cuts[nb] = at
	}
}

// bags returns items [start, end) of table tid's hashed bag list: the
// whole request, or one batch of it.
func (x *execution) bags(tid, start, end int) embedding.BagList {
	l, _ := x.req.BagsOf(int32(tid))
	idx := x.hash.Entries[tid].Out
	if start == 0 && end == len(l.Lens) {
		return embedding.BagList{Lens: l.Lens, Indices: idx}
	}
	nb := (len(l.Lens) + x.batch - 1) / x.batch
	cuts := x.cuts[tid*(nb+1)+start/x.batch:]
	return embedding.BagList{Lens: l.Lens[start:end], Indices: idx[cuts[0]:cuts[1]]}
}

// runBatch executes one batch (items [start, start+len(scores)) of the
// request) through all nets sequentially, writing its scores.
func (x *execution) runBatch(scores []float32, start int) error {
	e, prog, end := x.e, x.prog, start+len(scores)
	// One pooled workspace per batch: its dense outputs reuse the storage
	// an earlier batch left under the same names, and it is recycled
	// after the scores are copied out. Nothing drawn from it may escape
	// this function.
	ws, _ := prog.workspaces.Get().(*nn.Workspace)
	if ws == nil {
		ws = nn.NewWorkspace()
	}
	defer func() {
		ws.Recycle()
		prog.workspaces.Put(ws)
	}()

	for _, ns := range e.model.Config.Nets {
		m := x.req.Dense[ns.Name]
		// ScaleClip mutates in place; copy this batch's rows (into
		// recycled storage) so concurrent batches do not stomp the
		// shared request tensor.
		dst := ws.AllocBlob("dense_"+ns.Name, len(scores), m.Cols)
		copy(dst.Data, m.Data[start*m.Cols:end*m.Cols])
		ws.SetBlob("dense_"+ns.Name, dst)
	}
	if !prog.plan.IsDistributed() {
		for tid, name := range e.hashedNames {
			ws.SetBags(name, x.bags(tid, start, end))
		}
	}

	var finalOut string
	for _, np := range prog.nets {
		ops := make([]nn.Op, 0, len(np.preOps)+len(np.postOps)+2)
		ops = append(ops, np.preOps...)
		if np.slsOp != nil {
			ops = append(ops, np.slsOp)
		} else {
			f := x.admitted
			if f == nil {
				// The paper's schedule: the batch fetches this net's rows
				// itself, where the asynchronous operators sat.
				f = x.newFetch(np.call, start, end)
				ops = append(ops, f.ops()...)
			}
			ops = append(ops, &waitOp{
				name: "wait_" + np.spec.Name, np: np, asm: f.nets[np.callPos], from: start - f.start, rows: len(scores),
			})
		}
		ops = append(ops, np.postOps...)
		net := &nn.Net{NetName: np.spec.Name, Ops: ops}
		if err := net.Run(ws, x.obs); err != nil {
			return fmt.Errorf("core: request %d %s: %w", x.req.ID, np.spec.Name, err)
		}
		finalOut = np.outBlob
	}

	final, err := ws.Blob(finalOut)
	if err != nil {
		return err
	}
	if final.Cols != 1 || final.Rows != len(scores) {
		return fmt.Errorf("core: final output is %dx%d, want %dx1", final.Rows, final.Cols, len(scores))
	}
	copy(scores, final.Data)
	return nil
}

// renameOp aliases a blob under the net's canonical output name.
type renameOp struct {
	name     string
	from, to string
}

// Name implements nn.Op.
func (o *renameOp) Name() string { return o.name }

// Kind implements nn.Op.
func (o *renameOp) Kind() nn.OpKind { return nn.KindMemoryTransform }

// Run implements nn.Op.
func (o *renameOp) Run(ws *nn.Workspace) error {
	m, err := ws.Blob(o.from)
	if err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	ws.SetBlob(o.to, m)
	return nil
}
