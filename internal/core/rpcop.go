package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// embAssembler completes one net's fused embedding matrix for a sparse
// fetch (the bags×ΣDim concatenation the dense layers consume, over the
// fetch's items): each table's collector writes its pooled columns in,
// and the matrix's future resolves when every table has delivered.
type embAssembler struct {
	future *nn.Future
	emb    *tensor.Matrix
	// collectors are the net's, one per table in the net's table order.
	collectors []collector
	mu         sync.Mutex
	pending    int
	failed     bool
}

func newEmbAssembler(rows, cols, tables int) *embAssembler {
	return &embAssembler{future: nn.NewFuture(), emb: tensor.New(rows, cols), pending: tables}
}

// tableDone marks one table's columns written; the last one completes
// the future.
func (a *embAssembler) tableDone() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed {
		return
	}
	a.pending--
	if a.pending == 0 {
		a.future.Complete(a.emb, nil)
	}
}

// fail resolves the future with the first error.
func (a *embAssembler) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed {
		return
	}
	a.failed = true
	a.future.Complete(nil, err)
}

// collector places one table's pooled rows in the table's columns of the
// fetch's fused embedding matrix. A contribution is packed, and still
// inside the sparse response that carried it: the wire bytes of one
// cols-wide row per non-empty bag of the bag list that was sent, whose
// lengths are what says whose rows they are — row k belongs to the k-th
// bag of non-zero length, that is, to that bag's item. The matrix starts
// zeroed, so an item whose bag was empty already holds the +0 row a dense
// response would have carried.
//
// A whole table has one source and its rows are decoded straight into
// place — the only copy they see on the main shard. A row-partitioned
// table has one source per part; the parts are held (as views, nothing
// is copied) until the last one lands and then every present row is
// added onto the zeroed columns in ascending part order, so the float32
// result does not depend on which shard answered first.
//
// That sum has the bits of "copy the first part, add the rest" over
// dense rows of zeros, which is what it replaced: a pooled value is a sum
// that started at +0, so it is never −0 (under round-to-nearest x + y is
// −0 only when both are) and never a signalling NaN, and for every other
// v both (+0) + v and v + (+0) have the bits of v. Adding a part's
// present row onto +0 is therefore the copy, skipping its absent row is
// the add of +0, and a part that was never asked — none of its bags had
// a lookup — is a part of absent rows
// (TestCollectorSumsPartsInPartOrder).
type collector struct {
	cols   int
	asm    *embAssembler
	colOff int

	mu      sync.Mutex
	pending int
	// parts holds a partitioned table's contributions by part index;
	// unused with a single source.
	parts  []partial
	failed bool
}

// partial is one source's contribution: packed rows in wire form and the
// lengths of the bags they answer, as they were sent. Both nil: the
// source was not asked.
type partial struct {
	rows []byte
	lens []int32
}

func newCollector(sources, cols int, asm *embAssembler, colOff int) collector {
	var parts []partial
	if sources > 1 {
		parts = make([]partial, sources)
	}
	return collector{cols: cols, asm: asm, colOff: colOff, pending: sources, parts: parts}
}

// deliver merges part's contribution. The caller has checked that p.rows
// holds exactly one row per non-zero length of p.lens.
func (c *collector) deliver(part int, p partial, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		return
	}
	if err == nil && c.parts != nil && (part < 0 || part >= len(c.parts)) {
		err = fmt.Errorf("core: partial pool for part %d of %d", part, len(c.parts))
	}
	if err != nil {
		c.failed = true
		c.asm.fail(err)
		return
	}
	if c.parts != nil {
		c.parts[part] = p
	}
	c.pending--
	if c.pending > 0 {
		return
	}
	// Column ranges are disjoint across collectors, so writing without
	// the assembler's lock is safe; completion ordering is serialized by
	// tableDone.
	if c.parts == nil {
		c.place(p, false)
	}
	for _, p := range c.parts {
		c.place(p, true)
	}
	c.asm.tableDone()
}

// place moves p's rows to their items' columns: row k to the k-th
// non-empty bag's, stored, or added to what is there.
func (c *collector) place(p partial, add bool) {
	emb, rows := c.asm.emb, p.rows
	var vals []float32
	if add {
		vals = viewF32s(rows)
	}
	for b, n := range p.lens {
		if n == 0 {
			continue
		}
		dst := emb.Row(b)[c.colOff : c.colOff+c.cols]
		if add {
			for i, v := range vals[:c.cols] {
				dst[i] += v
			}
			vals = vals[c.cols:]
		} else {
			getF32s(dst, rows)
			rows = rows[4*c.cols:]
		}
	}
}

// groupEntry is one (net, table, part) a shard's group covers.
type groupEntry struct {
	net       int // position in the call plan's nets: the wire's net index
	slot      int // the table's index in that net's tables
	partIndex int
	numParts  int
}

// callPlan is the compiled shape of one sparse fetch: the nets it covers
// and, for every sparse shard serving any of their tables, the entries to
// ask that shard for. The default program has one plan over all nets.
type callPlan struct {
	nets   []*netProgram
	names  []string // the nets' names: the wire's net table
	label  string   // "net1+net2": names the plan's ops and spans
	groups []remoteGroupSpec
}

// sparseFetch is one sparse round trip at the main shard: the pooled
// embeddings of a plan's nets for items [start, start+rows) of a request
// — by default every net over the whole request, issued at admission.
// Each net's results land in a rows×embCols matrix of its own; a batch
// is a row range of it.
type sparseFetch struct {
	x     *execution
	plan  *callPlan
	start int
	rows  int
	nets  []*embAssembler // parallel to plan.nets
}

func (x *execution) newFetch(plan *callPlan, start, end int) *sparseFetch {
	f := &sparseFetch{x: x, plan: plan, start: start, rows: end - start, nets: make([]*embAssembler, len(plan.nets))}
	for i, np := range plan.nets {
		asm := newEmbAssembler(f.rows, np.embCols, len(np.tables))
		asm.collectors = make([]collector, len(np.tables))
		for slot, t := range np.tables {
			asm.collectors[slot] = newCollector(t.sources, t.Dim, asm, t.colOff)
		}
		f.nets[i] = asm
	}
	return f
}

// ops returns the fetch's asynchronous RPC operators, one per shard.
func (f *sparseFetch) ops() []nn.Op {
	ops := make([]nn.Op, len(f.plan.groups))
	for i := range f.plan.groups {
		ops[i] = &rpcOp{f: f, g: &f.plan.groups[i]}
	}
	return ops
}

// rpcOp is the asynchronous RPC operator that replaces the sparse
// operators one sparse shard serves (paper Section III-A2). Run
// serializes the shard's table groups and issues the call synchronously
// — as Caffe2's sequentially-scheduled async ops do — then hands response
// waiting, deserialization, and pooled-result delivery to a goroutine,
// giving the asynchronous fan-out the paper's Fig. 3 trace shows. The
// operator's own span is therefore dominated by request serialization,
// which the analyzer attributes to the RPC Ser/De category.
type rpcOp struct {
	f *sparseFetch
	g *remoteGroupSpec
}

// Name implements nn.Op.
func (o *rpcOp) Name() string { return o.g.op }

// Kind implements nn.Op.
func (o *rpcOp) Kind() nn.OpKind { return nn.KindRPC }

// layout builds this shard's body from the fetch's row range of the
// request's bag lists — exactly sized, every length and every hashed index
// moved into it once: a whole table's with one memmove each, a partition's
// by a count pass and a filter pass. It also returns, per entry, the
// lengths that went out: they say which items the answer's rows belong
// to. A nil body means no lookup routes to the shard.
func (o *rpcOp) layout() (body []byte, sent [][]int32) {
	f, x := o.f, o.f.x
	list := func(e *groupEntry) (int, embedding.BagList) {
		id := f.plan.nets[e.net].tables[e.slot].ID
		return id, x.bags(id, f.start, f.start+f.rows)
	}
	// indices[i] is how many indices entry i sends.
	indices := make([]int, len(o.g.entries))
	size, lookups := sparseHeadSize(f.plan.names), 0
	for i := range o.g.entries {
		e := &o.g.entries[i]
		_, l := list(e)
		indices[i] = len(l.Indices)
		if e.numParts > 1 {
			indices[i] = countPart(l.Indices, e.partIndex, e.numParts)
		}
		size += sparseEntryHeader + bagListSize(len(l.Lens), indices[i])
		lookups += indices[i]
	}
	if lookups == 0 {
		return nil, nil
	}
	body = appendSparseHead(alignedBytes(size)[:0], f.plan.names, len(o.g.entries))
	sent = make([][]int32, len(o.g.entries))
	for i := range o.g.entries {
		e := &o.g.entries[i]
		id, l := list(e)
		body = appendEntryIDs(body, e.net, id, e.partIndex, e.numParts)
		if e.numParts > 1 {
			body, sent[i] = appendPart(body, l, e.partIndex, e.numParts, indices[i])
		} else {
			body, sent[i] = appendBagList(body, l), l.Lens
		}
	}
	return body, sent
}

// Run implements nn.Op. It serializes synchronously — on the scheduling
// thread, so the cost is counted in this op's span, which the analyzer
// books as RPC Ser/De — issues the call, then leaves waiting for the
// response and moving its pooled rows into place to a goroutine.
func (o *rpcOp) Run(*nn.Workspace) error {
	f, x := o.f, o.f.x
	body, sent := o.layout()
	if body == nil {
		// No lookups route to this shard (e.g. DRM3's partitioned user
		// table: only one part matches the request's user). Skip the call
		// entirely — the paper's "only two shards would be accessed" —
		// and satisfy collectors with empty contributions.
		o.deliverAll(nil)
		return nil
	}
	rec, met := x.e.cfg.Recorder, &x.e.met
	callID := rec.NextID()
	issue := rec.Now()
	call := o.g.client.Go(&rpc.Request{
		Method: MethodSparseRun, TraceID: x.ctx.TraceID, CallID: callID, Body: body,
	})

	met.rpcCalls.Inc()
	x.calls.Add(1)
	x.inflight.Add(1)
	go func() {
		defer x.inflight.Done()
		<-call.Done
		outstanding := rec.Now().Sub(issue)
		met.rpcOutstandingNs.Observe(int64(outstanding))
		rec.Record(trace.Span{
			TraceID: x.ctx.TraceID, CallID: callID, Layer: trace.LayerRPCCall,
			Net: f.plan.label, Name: o.g.op, Start: issue, Dur: outstanding,
		})
		if call.Err != nil {
			o.deliverAll(fmt.Errorf("core: %s → %s: %w", o.g.op, o.g.service, call.Err))
			return
		}

		// Deserialize (RPC Ser/De at the main shard): walk the response
		// in place and move each entry's rows from the response bytes to
		// the embedding matrix — no decoded intermediate.
		decStart := rec.Now()
		o.scatter(call.Resp.Body, sent)
		rec.Record(trace.Span{
			TraceID: x.ctx.TraceID, CallID: callID, Layer: trace.LayerSerDe, Net: f.plan.label,
			Name: o.g.decodeOp, Start: decStart, Dur: rec.Now().Sub(decStart),
		})
	}()
	return nil
}

// collector returns the collector an entry's pooled rows go to.
func (o *rpcOp) collector(e *groupEntry) *collector {
	return &o.f.nets[e.net].collectors[e.slot]
}

// deliverAll hands every entry's collector the same outcome: an error,
// or (nil) the contribution of a source that was not asked.
func (o *rpcOp) deliverAll(err error) {
	for i := range o.g.entries {
		e := &o.g.entries[i]
		o.collector(e).deliver(e.partIndex, partial{}, err)
	}
}

// scatter delivers a sparse response's entries to their collectors. sent
// is the bag lengths of the request's entries, in the order asked. The
// response is trusted for nothing but its floats: an entry must name the
// table, part, bag count and width that were asked for and carry exactly
// one row per non-zero length sent — counted here, from the main shard's
// own lengths — or it fails its own table; a response that cannot be
// walked fails every table not yet delivered.
func (o *rpcOp) scatter(resp []byte, sent [][]int32) {
	pooled, err := readPooled(resp)
	if err == nil && pooled.left != len(o.g.entries) {
		err = fmt.Errorf("%d entries for %d requested", pooled.left, len(o.g.entries))
	}
	for i := range o.g.entries {
		e := &o.g.entries[i]
		var got pooledSlot
		var rows []byte
		if err == nil {
			got, rows, err = pooled.next()
		}
		if err != nil {
			o.collector(e).deliver(e.partIndex, partial{}, fmt.Errorf("core: response of %s: %w", o.g.service, err))
			continue
		}
		t := &o.f.plan.nets[e.net].tables[e.slot]
		_, present, _ := sumLens(sent[i])
		if int(got.TableID) != t.ID || int(got.PartIndex) != e.partIndex || int(got.Rows) != o.f.rows || int(got.Cols) != t.Dim || got.n != present*t.Dim {
			o.collector(e).deliver(e.partIndex, partial{}, fmt.Errorf(
				"core: %s entry %d mismatched (table %d part %d rows %d cols %d values %d; want %d/%d/%d/%d/%d)",
				o.g.service, i, got.TableID, got.PartIndex, got.Rows, got.Cols, got.n, t.ID, e.partIndex, o.f.rows, t.Dim, present*t.Dim))
			continue
		}
		o.collector(e).deliver(e.partIndex, partial{rows: rows, lens: sent[i]}, nil)
	}
}

// waitOp blocks a batch on one net's asynchronous pooled results and
// installs the batch's row range of them — rows [from, from+rows) of the
// fetch's matrix, contiguous in a row-major matrix, so a view, not a
// copy — as the net's embedding blob (the interaction reads its features
// as column ranges of the same blob). It sits before the first dense
// consumer so the wait lands in a dedicated KindWait span instead of
// silently inflating the consumer operator's span: that span is the time
// the request really blocked on sparse results — the analyzer's embedded
// portion — and must not count as operator compute.
type waitOp struct {
	name       string
	np         *netProgram
	asm        *embAssembler
	from, rows int
}

// Name implements nn.Op.
func (o *waitOp) Name() string { return o.name }

// Kind implements nn.Op.
func (o *waitOp) Kind() nn.OpKind { return nn.KindWait }

// Run implements nn.Op.
func (o *waitOp) Run(ws *nn.Workspace) error {
	m, err := o.asm.future.Wait()
	if err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	ws.SetBlob(o.np.embBlob, tensor.FromSlice(o.rows, m.Cols, m.Data[o.from*m.Cols:(o.from+o.rows)*m.Cols]))
	return nil
}

// burnFor spins the CPU for d; used to model platform compute scaling.
func burnFor(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d) //lint:allow determinism busy-wait models a slower platform; burns wall time, returns nothing
	for time.Now().Before(end) {
	}
}
