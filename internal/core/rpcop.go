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

// collector merges pooled contributions for one table. Contributions
// arrive as the wire bytes of a rows×cols float matrix, still inside the
// sparse response that carried them. A whole table has one source and
// its rows are decoded straight into the table's columns of the fetch's
// fused embedding matrix — the only copy they see on the main shard. A
// row-partitioned table has one source per part; the parts are held (as
// views, nothing is copied) until the last one lands and then summed in
// ascending part order, so the float32 result does not depend on which
// shard answered first. Interaction features additionally complete the
// table's standalone pooled future with a view of the same bytes.
type collector struct {
	rows, cols int
	asm        *embAssembler
	colOff     int
	// interact is the per-table pooled blob future; nil unless the table
	// joins the pairwise interaction.
	interact *nn.Future

	mu      sync.Mutex
	pending int
	// parts holds a partitioned table's contributions by part index (nil:
	// none yet, or a source with no hits); unused with a single source.
	parts  [][]byte
	failed bool
}

func newCollector(sources, rows, cols int, asm *embAssembler, colOff int, interact *nn.Future) collector {
	var parts [][]byte
	if sources > 1 {
		parts = make([][]byte, sources)
	}
	return collector{
		rows: rows, cols: cols, asm: asm, colOff: colOff, interact: interact,
		pending: sources, parts: parts,
	}
}

// deliver merges part's contribution: pooled is rows×cols floats in wire
// form, or nil with a nil error for "no hits on this source" (a skipped
// empty call), which contributes zeros.
func (c *collector) deliver(part int, pooled []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		return
	}
	if err == nil && pooled != nil && len(pooled) != 4*c.rows*c.cols {
		err = fmt.Errorf("core: partial pool of %d bytes, want %dx%d floats", len(pooled), c.rows, c.cols)
	}
	if err == nil && c.parts != nil && (part < 0 || part >= len(c.parts)) {
		err = fmt.Errorf("core: partial pool for part %d of %d", part, len(c.parts))
	}
	if err != nil {
		c.failed = true
		c.asm.fail(err)
		if c.interact != nil {
			c.interact.Complete(nil, err)
		}
		return
	}
	if c.parts != nil {
		c.parts[part] = pooled
	}
	c.pending--
	if c.pending > 0 {
		return
	}
	// Column ranges are disjoint across collectors, so writing without
	// the assembler's lock is safe; completion ordering is serialized by
	// tableDone. The matrix starts zeroed: a table nobody hit is done.
	emb := c.asm.emb
	var m *tensor.Matrix // the table's own pooled matrix, for the interaction
	switch {
	case c.parts != nil:
		c.sumParts(emb)
	case pooled != nil:
		stride := 4 * c.cols
		for b := 0; b < c.rows; b++ {
			getF32s(emb.Row(b)[c.colOff:c.colOff+c.cols], pooled[b*stride:])
		}
		if c.interact != nil {
			m = tensor.FromSlice(c.rows, c.cols, viewF32s(pooled))
		}
	}
	if c.interact != nil {
		if m == nil {
			// Summed from parts, or all zeros: read the columns back.
			m = tensor.New(c.rows, c.cols)
			for b := 0; b < c.rows; b++ {
				copy(m.Row(b), emb.Row(b)[c.colOff:c.colOff+c.cols])
			}
		}
		c.interact.Complete(m, nil)
	}
	c.asm.tableDone()
}

// sumParts adds the held partial pools into the table's columns in
// ascending part order (sum pooling distributes over row partitions, so
// the merge is exact up to float32 rounding, and the fixed order makes
// that rounding the same on every run).
func (c *collector) sumParts(emb *tensor.Matrix) {
	first := true
	for _, part := range c.parts {
		if part == nil {
			continue
		}
		vals := viewF32s(part)
		for b := 0; b < c.rows; b++ {
			dst := emb.Row(b)[c.colOff : c.colOff+c.cols]
			src := vals[b*c.cols : (b+1)*c.cols]
			if first {
				copy(dst, src)
				continue
			}
			for i, v := range src {
				dst[i] += v
			}
		}
		first = false
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
			var interact *nn.Future
			if t.pooled != "" {
				interact = nn.NewFuture()
			}
			asm.collectors[slot] = newCollector(t.sources, f.rows, t.Dim, asm, t.colOff, interact)
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

// Run implements nn.Op. It takes this shard's row range of the request's
// hashed bags and serializes it synchronously, then leaves waiting for
// the response and moving its pooled rows into place to a goroutine.
func (o *rpcOp) Run(*nn.Workspace) error {
	f, x := o.f, o.f.x
	sreq := &SparseRequest{Nets: f.plan.names, Entries: make([]SparseEntry, len(o.g.entries))}
	anyHits := false
	for i, e := range o.g.entries {
		id := f.plan.nets[e.net].tables[e.slot].ID
		bags := x.hash.Entries[id].Out[f.start : f.start+f.rows]
		if e.numParts > 1 {
			bags = localizeBags(bags, e.partIndex, e.numParts)
		}
		if !anyHits && embedding.TotalLookups(bags) > 0 {
			anyHits = true
		}
		sreq.Entries[i] = SparseEntry{
			Net: int32(e.net), TableID: int32(id), PartIndex: int32(e.partIndex), NumParts: int32(e.numParts), Bags: bags,
		}
	}

	if !anyHits {
		// No lookups route to this shard (e.g. DRM3's partitioned user
		// table: only one part matches the request's user). Skip the call
		// entirely — the paper's "only two shards would be accessed" —
		// and satisfy collectors with zero contributions.
		o.deliverAll(nil)
		return nil
	}

	// Serialize on the scheduling thread (counted in this op's span,
	// which the analyzer books as RPC Ser/De), then issue.
	body := EncodeSparseRequest(sreq)
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
		o.scatter(call.Resp.Body)
		rec.Record(trace.Span{
			TraceID: x.ctx.TraceID, CallID: callID, Layer: trace.LayerSerDe, Net: f.plan.label,
			Name: o.g.op + "/decode", Start: decStart, Dur: rec.Now().Sub(decStart),
		})
	}()
	return nil
}

// collector returns the collector an entry's pooled rows go to.
func (o *rpcOp) collector(e *groupEntry) *collector {
	return &o.f.nets[e.net].collectors[e.slot]
}

// deliverAll hands every entry's collector the same outcome: an error,
// or (nil) a zero contribution.
func (o *rpcOp) deliverAll(err error) {
	for i := range o.g.entries {
		e := &o.g.entries[i]
		o.collector(e).deliver(e.partIndex, nil, err)
	}
}

// scatter delivers a sparse response's entries to their collectors. An
// entry that does not answer what was asked fails its own table; a
// response that cannot be walked fails every table not yet delivered.
func (o *rpcOp) scatter(resp []byte) {
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
			o.collector(e).deliver(e.partIndex, nil, fmt.Errorf("core: response of %s: %w", o.g.service, err))
			continue
		}
		t := &o.f.plan.nets[e.net].tables[e.slot]
		if int(got.TableID) != t.ID || int(got.PartIndex) != e.partIndex || int(got.Rows) != o.f.rows || int(got.Cols) != t.Dim {
			o.collector(e).deliver(e.partIndex, nil, fmt.Errorf(
				"core: %s entry %d mismatched (table %d part %d rows %d cols %d; want %d/%d/%d/%d)",
				o.g.service, i, got.TableID, got.PartIndex, got.Rows, got.Cols, t.ID, e.partIndex, o.f.rows, t.Dim))
			continue
		}
		o.collector(e).deliver(e.partIndex, rows, nil)
	}
}

// localizeBags filters bag indices to one modulus partition and rebases
// them to the partition's local row space. It measures, then fills one
// header slice and one flat index array (capacity-capped sub-slices;
// empty bags keep nil indices, as bagSlab does).
func localizeBags(bags []embedding.Bag, part, numParts int) []embedding.Bag {
	n := 0
	for _, bag := range bags {
		for _, idx := range bag.Indices {
			if int(idx)%numParts == part {
				n++
			}
		}
	}
	out := make([]embedding.Bag, len(bags))
	flat := make([]int32, n)
	for b, bag := range bags {
		k := 0
		for _, idx := range bag.Indices {
			if int(idx)%numParts == part {
				flat[k] = idx / int32(numParts)
				k++
			}
		}
		if k > 0 {
			out[b].Indices, flat = flat[:k:k], flat[k:]
		}
	}
	return out
}

// waitOp blocks a batch on one net's asynchronous pooled results and
// installs the batch's row range of them — rows [from, from+rows) of the
// fetch's matrices, contiguous in a row-major matrix, so views, not
// copies — as the net's embedding and interaction blobs. It sits before
// the first dense consumer so the wait lands in a dedicated KindWait
// span instead of silently inflating the consumer operator's span: that
// span is the time the request really blocked on sparse results — the
// analyzer's embedded portion — and must not count as operator compute.
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
	view := func(blob string, f *nn.Future) error {
		m, err := f.Wait()
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		ws.SetBlob(blob, tensor.FromSlice(o.rows, m.Cols, m.Data[o.from*m.Cols:(o.from+o.rows)*m.Cols]))
		return nil
	}
	if err := view(o.np.embBlob, o.asm.future); err != nil {
		return err
	}
	for slot, t := range o.np.tables {
		if t.pooled != "" {
			if err := view(t.pooled, o.asm.collectors[slot].interact); err != nil {
				return err
			}
		}
	}
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
