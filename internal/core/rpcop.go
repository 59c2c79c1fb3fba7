package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// embAssembler completes one batch's fused embedding matrix (the
// bags×ΣDim concatenation the dense layers consume): each table's
// collector writes its pooled columns in, and the matrix's future
// resolves when every table has delivered.
type embAssembler struct {
	future  *nn.Future
	emb     *tensor.Matrix
	mu      sync.Mutex
	pending int
	failed  bool
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
// its rows are decoded straight into the table's columns of the batch's
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

func newCollector(sources, rows, cols int, asm *embAssembler, colOff int, interact *nn.Future) *collector {
	c := &collector{
		rows: rows, cols: cols, asm: asm, colOff: colOff, interact: interact,
		pending: sources,
	}
	if sources > 1 {
		c.parts = make([][]byte, sources)
	}
	return c
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

// groupEntry is one (table, part) a remote group covers.
type groupEntry struct {
	tableID   int
	partIndex int
	numParts  int
	rows      int // bucket count for zero-fill shapes
	dim       int
}

// rpcOp is the asynchronous RPC operator that replaces a net's sparse
// operators for one sparse shard (paper Section III-A2). Run serializes
// the shard's table groups and issues the call synchronously — as
// Caffe2's sequentially-scheduled async ops do — then hands response
// waiting, deserialization, and pooled-result delivery to a goroutine,
// giving the asynchronous fan-out the paper's Fig. 3 trace shows. The
// operator's own span is therefore dominated by request serialization,
// which the analyzer attributes to the RPC Ser/De category.
type rpcOp struct {
	name    string
	net     string
	service string
	client  rpc.Caller
	entries []groupEntry
	// collectors are shared across the net's rpc ops; keyed by table ID.
	collectors map[int]*collector
	rec        *trace.Recorder
	ctx        trace.Context
	batchItems int
	// hashedNames maps table ID to its hashed-bags blob name.
	hashedNames []string
	// calls/outNs are the engine's sparse-RPC metric handles (nil no-ops
	// without a registry).
	calls *obs.Counter
	outNs *obs.Histogram
}

// Name implements nn.Op.
func (o *rpcOp) Name() string { return o.name }

// Kind implements nn.Op.
func (o *rpcOp) Kind() nn.OpKind { return nn.KindRPC }

// Run implements nn.Op. It gathers this shard's bags from the workspace
// and serializes them synchronously, then leaves waiting for the
// response and moving its pooled rows into place to a goroutine.
func (o *rpcOp) Run(ws *nn.Workspace) error {
	sreq := &SparseRequest{Net: o.net, Entries: make([]SparseEntry, len(o.entries))}
	anyHits := false
	for i, e := range o.entries {
		bags, err := ws.Bags(o.hashedNames[e.tableID])
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		if e.numParts > 1 {
			bags = localizeBags(bags, e.partIndex, e.numParts)
		}
		if !anyHits && embedding.TotalLookups(bags) > 0 {
			anyHits = true
		}
		sreq.Entries[i] = SparseEntry{
			TableID: int32(e.tableID), PartIndex: int32(e.partIndex), NumParts: int32(e.numParts), Bags: bags,
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
	callID := o.rec.NextID()
	issue := o.rec.Now()
	call := o.client.Go(&rpc.Request{
		Method: "sparse.run", TraceID: o.ctx.TraceID, CallID: callID, Body: body,
	})

	o.calls.Inc()
	go func() {
		<-call.Done
		outstanding := o.rec.Now().Sub(issue)
		o.outNs.Observe(int64(outstanding))
		o.rec.Record(trace.Span{
			TraceID: o.ctx.TraceID, CallID: callID, Layer: trace.LayerRPCCall,
			Net: o.net, Name: o.name, Start: issue, Dur: outstanding,
		})
		if call.Err != nil {
			o.deliverAll(fmt.Errorf("core: %s → %s: %w", o.name, o.service, call.Err))
			return
		}

		// Deserialize (RPC Ser/De at the main shard): walk the response
		// in place and move each entry's rows from the response bytes to
		// the embedding matrix — no decoded intermediate.
		decStart := o.rec.Now()
		o.scatter(call.Resp.Body)
		o.rec.Record(trace.Span{
			TraceID: o.ctx.TraceID, CallID: callID, Layer: trace.LayerSerDe, Net: o.net,
			Name: o.name + "/decode", Start: decStart, Dur: o.rec.Now().Sub(decStart),
		})
	}()
	return nil
}

// deliverAll hands every entry's collector the same outcome: an error,
// or (nil) a zero contribution.
func (o *rpcOp) deliverAll(err error) {
	for _, e := range o.entries {
		o.collectors[e.tableID].deliver(e.partIndex, nil, err)
	}
}

// scatter delivers a sparse response's entries to their collectors. An
// entry that does not answer what was asked fails its own table; a
// response that cannot be walked fails every table not yet delivered.
func (o *rpcOp) scatter(resp []byte) {
	pooled, err := readPooled(resp)
	if err == nil && pooled.left != len(o.entries) {
		err = fmt.Errorf("core: %s returned %d entries for %d requested", o.service, pooled.left, len(o.entries))
	}
	for i, e := range o.entries {
		var got pooledSlot
		var rows []byte
		if err == nil {
			got, rows, err = pooled.next()
		}
		if err != nil {
			o.collectors[e.tableID].deliver(e.partIndex, nil, err)
			continue
		}
		if int(got.TableID) != e.tableID || int(got.PartIndex) != e.partIndex || int(got.Rows) != o.batchItems || int(got.Cols) != e.dim {
			o.collectors[e.tableID].deliver(e.partIndex, nil, fmt.Errorf(
				"core: %s entry %d mismatched (table %d part %d rows %d cols %d; want %d/%d/%d/%d)",
				o.service, i, got.TableID, got.PartIndex, got.Rows, got.Cols, e.tableID, e.partIndex, o.batchItems, e.dim))
			continue
		}
		o.collectors[e.tableID].deliver(e.partIndex, rows, nil)
	}
}

// localizeBags filters bag indices to one modulus partition and rebases
// them to the partition's local row space.
func localizeBags(bags []embedding.Bag, part, numParts int) []embedding.Bag {
	out := make([]embedding.Bag, len(bags))
	for b, bag := range bags {
		for _, idx := range bag.Indices {
			if int(idx)%numParts == part {
				out[b].Indices = append(out[b].Indices, idx/int32(numParts))
			}
		}
	}
	return out
}

// waitOp blocks on the net's asynchronous pooled results. The engine
// inserts it between the RPC fan-out and the first dense consumer so the
// wait time lands in a dedicated KindWait span instead of silently
// inflating the consumer operator's span — the analyzer attributes the
// wait through the LayerRPCCall outstanding spans (the paper's embedded
// portion) and must not double-count it as operator compute.
type waitOp struct {
	name  string
	blobs []string
}

// Name implements nn.Op.
func (o *waitOp) Name() string { return o.name }

// Kind implements nn.Op.
func (o *waitOp) Kind() nn.OpKind { return nn.KindWait }

// Run implements nn.Op.
func (o *waitOp) Run(ws *nn.Workspace) error {
	for _, b := range o.blobs {
		if _, err := ws.WaitBlob(b); err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
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
