package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// embAssembler completes one net's pooled embeddings for a sparse fetch:
// the block table the dense layers consume, one row per item of the
// fetch and one slot per table of the net, resolved once every source of
// every table has delivered.
//
// A contribution is packed, and stays inside the sparse response that
// carried it: the wire bytes of one Dim-wide row per non-empty bag of the
// bag list that was sent, whose lengths are what says whose rows they are
// — row k belongs to the k-th bag of non-zero length, that is, to that
// bag's item. Nothing is copied: a whole table has one source, the slot's
// storage is that response's own row region (read in place, viewF32s), an
// item whose bag had a lookup gets the handle of its row there, and one
// whose bag was empty keeps handle 0 — the +0 row a dense response would
// have carried. The fetch therefore owns the response bodies until its
// execution returns.
//
// A row-partitioned table has one source per part; the parts are held (as
// views) until the last one lands and then every present row is added, in
// ascending part order, onto a zeroed packed scratch — one row per item
// with a lookup in any part — so the float32 result does not depend on
// which shard answered first.
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
type embAssembler struct {
	blocks tensor.Blocks
	// done is closed once blocks is complete, or err is set.
	done chan struct{}
	err  error

	mu sync.Mutex
	// pending counts the sources still to deliver, over all tables.
	pending int
	failed  bool
	// parts[slot] collects a partitioned table's contributions; nil for a
	// whole table, and nil altogether when the net has none partitioned.
	parts []*partSet
}

// partSet is a partitioned table's contributions by part index, and how
// many have yet to land.
type partSet struct {
	parts []partial
	left  int
}

// partial is one source's contribution: packed rows in wire form and the
// lengths of the bags they answer, as they were sent. Both nil: the
// source was not asked.
type partial struct {
	rows []byte
	lens []int32
}

func newEmbAssembler(rows int, tables []netTable) *embAssembler {
	a := &embAssembler{done: make(chan struct{})}
	a.blocks = tensor.Blocks{
		Rows: rows, Stride: rows,
		Slots: make([]tensor.BlockSlot, len(tables)), Handles: make([]uint32, len(tables)*rows),
	}
	for slot, t := range tables {
		a.blocks.Slots[slot] = tensor.BlockSlot{Col: int32(t.colOff), Width: int32(t.Dim)}
		a.blocks.Cols += t.Dim
		a.pending += t.sources
		if t.sources > 1 {
			if a.parts == nil {
				a.parts = make([]*partSet, len(tables))
			}
			a.parts[slot] = &partSet{parts: make([]partial, t.sources), left: t.sources}
		}
	}
	return a
}

// wait blocks until the table is complete or a source has failed.
func (a *embAssembler) wait() (*tensor.Blocks, error) {
	<-a.done
	return &a.blocks, a.err
}

// place takes one source's contribution to the table at slot; the caller
// has checked that p.rows holds exactly one row per non-zero length of
// p.lens, and reports it with delivered once placed. A whole table's slot
// is written without the lock — slots are disjoint and it has the one
// source; the parts of a partitioned table meet under it.
func (a *embAssembler) place(slot, part int, p partial) {
	s := &a.blocks.Slots[slot]
	handles := a.blocks.Handles[slot*a.blocks.Stride:][:a.blocks.Rows]
	if a.parts == nil || a.parts[slot] == nil {
		s.Data = viewF32s(p.rows)
		storeHandles(handles, p.lens, s.Width)
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ps := a.parts[slot]
	if part < 0 || part >= len(ps.parts) {
		a.failLocked(fmt.Errorf("core: partial pool for part %d of %d", part, len(ps.parts)))
		return
	}
	ps.parts[part] = p
	if ps.left--; ps.left == 0 {
		s.Data = sumParts(handles, ps.parts, int(s.Width))
	}
}

// delivered counts n sources placed; the last one completes the table.
func (a *embAssembler) delivered(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed || n == 0 {
		return
	}
	if a.pending -= n; a.pending == 0 {
		close(a.done)
	}
}

// fail resolves the table with the first error.
func (a *embAssembler) fail(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failLocked(err)
}

func (a *embAssembler) failLocked(err error) {
	if a.failed {
		return
	}
	a.failed, a.err = true, err
	close(a.done)
}

// storeHandles gives every item whose bag had a lookup the handle of its
// row among packed width-wide rows — the k-th such item, row k — and
// returns how many there were.
func storeHandles(handles []uint32, lens []int32, width int32) (present int) {
	for b, n := range lens {
		if n != 0 {
			handles[b] = uint32(present)*uint32(width) + 1
			present++
		}
	}
	return present
}

// sumParts adds a partitioned table's parts, in part order, into fresh
// packed rows — one per item with a row in any part, whose handle it
// stores — and returns them.
func sumParts(handles []uint32, parts []partial, width int) []float32 {
	hit := make([]int32, len(handles)) // non-zero: some part has a row for the item
	for _, p := range parts {
		for b, n := range p.lens {
			hit[b] |= n
		}
	}
	sums := make([]float32, storeHandles(handles, hit, int32(width))*width)
	for _, p := range parts {
		vals := viewF32s(p.rows)
		for b, n := range p.lens {
			if n == 0 {
				continue
			}
			dst := sums[handles[b]-1:][:width]
			for i, v := range vals[:width] {
				dst[i] += v
			}
			vals = vals[width:]
		}
	}
	return sums
}

// groupEntry is one (net, placement unit) a shard's group covers.
type groupEntry struct {
	net  int // position in the call plan's nets: the wire's net index
	slot int // the table's index in that net's tables
	sharding.PartRef
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
// Each net's results become a rows-tall block table of its own, over the
// response bodies where they arrived; a batch is a row range of it.
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
		f.nets[i] = newEmbAssembler(f.rows, np.tables)
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
// by a count pass and a filter pass. It also returns, per entry, what was
// sent, and counts each entry's indices against its unit: every call is
// laid out once, whatever the schedule and however it is hedged. A nil
// body means no lookup routes to the shard.
func (o *rpcOp) layout() (body []byte, sent []sentBags) {
	f, x := o.f, o.f.x
	list := func(e *groupEntry) embedding.BagList { return x.bags(e.TableID, f.start, f.start+f.rows) }
	// indices[i] is how many indices entry i sends.
	indices := make([]int, len(o.g.entries))
	size, lookups := sparseHeadSize(f.plan.names), 0
	for i := range o.g.entries {
		e := &o.g.entries[i]
		l := list(e)
		indices[i] = len(l.Indices)
		if e.NumParts > 1 {
			indices[i] = countPart(l.Indices, e.PartIndex, e.NumParts)
		}
		size += sparseEntryHeader + bagListSize(len(l.Lens), indices[i])
		lookups += indices[i]
	}
	if lookups == 0 {
		return nil, nil
	}
	body = appendSparseHead(alignedBytes(size)[:0], f.plan.names, len(o.g.entries))
	sent = make([]sentBags, len(o.g.entries))
	for i := range o.g.entries {
		e := &o.g.entries[i]
		l := list(e)
		o.g.lookups[i].Add(int64(indices[i]))
		body = appendEntryIDs(body, e.net, e.TableID, e.PartIndex, e.NumParts)
		if e.NumParts > 1 {
			body, sent[i].lens = appendPart(body, l, e.PartIndex, e.NumParts, indices[i])
		} else {
			body, sent[i].lens = appendBagList(body, l), l.Lens
		}
		for _, n := range sent[i].lens {
			if n != 0 {
				sent[i].present++
			}
		}
	}
	return body, sent
}

// sentBags is what an entry's answer is read against: the bag lengths
// that went out — they say which items the answer's rows belong to — and
// how many of them are not zero: how many rows it must hold.
type sentBags struct {
	lens    []int32
	present int
}

// Run implements nn.Op. It serializes synchronously — on the scheduling
// thread, so the cost is counted in this op's span, which the analyzer
// books as RPC Ser/De — issues the call, then leaves waiting for the
// response and pointing the fetch's block tables at its pooled rows to a
// goroutine.
func (o *rpcOp) Run(*nn.Workspace) error {
	f, x := o.f, o.f.x
	body, sent := o.layout()
	if body == nil {
		// No lookups route to this shard (e.g. DRM3's partitioned user
		// table: only one part matches the request's user). Skip the call
		// entirely — the paper's "only two shards would be accessed" —
		// and count every entry as answered with no row.
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
		// in place and hand each entry's rows, where they lie, to the
		// entry's slot of the block table — nothing is decoded or moved.
		decStart := rec.Now()
		o.scatter(call.Resp.Body, sent)
		rec.Record(trace.Span{
			TraceID: x.ctx.TraceID, CallID: callID, Layer: trace.LayerSerDe, Net: f.plan.label,
			Name: o.g.decodeOp, Start: decStart, Dur: rec.Now().Sub(decStart),
		})
	}()
	return nil
}

// deliver places what read makes of each entry, in the order asked, in
// the entry's net — or fails the net with read's error — and then counts
// the placed ones in.
func (o *rpcOp) deliver(read func(i int, e *groupEntry) (partial, error)) {
	placed := make([]int, len(o.f.nets))
	for i := range o.g.entries {
		e := &o.g.entries[i]
		p, err := read(i, e)
		if err != nil {
			o.f.nets[e.net].fail(err)
			continue
		}
		o.f.nets[e.net].place(e.slot, e.PartIndex, p)
		placed[e.net]++
	}
	for net, n := range placed {
		o.f.nets[net].delivered(n)
	}
}

// deliverAll gives every entry the same outcome: an error, or (nil) the
// contribution of a source that was not asked — no row.
func (o *rpcOp) deliverAll(err error) {
	o.deliver(func(int, *groupEntry) (partial, error) { return partial{}, err })
}

// scatter hands a sparse response's entries to their nets' block tables.
// sent is what the request's entries asked, in the order asked. The
// response is trusted for nothing but its floats: an entry must name the table, part, bag count
// and width that were asked for and carry exactly one row per non-zero
// length sent — counted by layout, from the main shard's own lengths — or
// it fails its net's table, as does every entry from the point where a
// response stops being walkable.
func (o *rpcOp) scatter(resp []byte, sent []sentBags) {
	pooled, err := readPooled(resp)
	if err == nil && pooled.left != len(o.g.entries) {
		err = fmt.Errorf("%d entries for %d requested", pooled.left, len(o.g.entries))
	}
	o.deliver(func(i int, e *groupEntry) (partial, error) {
		var got pooledSlot
		var rows []byte
		if err == nil {
			got, rows, err = pooled.next()
		}
		if err != nil {
			return partial{}, fmt.Errorf("core: response of %s: %w", o.g.service, err)
		}
		t := &o.f.plan.nets[e.net].tables[e.slot]
		if int(got.TableID) != t.ID || int(got.PartIndex) != e.PartIndex || int(got.Rows) != o.f.rows || int(got.Cols) != t.Dim || got.n != sent[i].present*t.Dim {
			return partial{}, fmt.Errorf(
				"core: %s entry %d mismatched (table %d part %d rows %d cols %d values %d; want %d/%d/%d/%d/%d)",
				o.g.service, i, got.TableID, got.PartIndex, got.Rows, got.Cols, got.n, t.ID, e.PartIndex, o.f.rows, t.Dim, sent[i].present*t.Dim)
		}
		return partial{rows: rows, lens: sent[i].lens}, nil
	})
}

// waitOp blocks a batch on one net's asynchronous pooled results and
// installs the batch's row range of them — rows [from, from+rows) of the
// fetch's block table, which shares the table's slots and handles: a
// view, not a copy — as the net's pooled embeddings (the projection and
// the interaction both read them through the handles). It sits before the
// first dense consumer so the wait lands in a dedicated KindWait span
// instead of silently inflating the consumer operator's span: that span
// is the time the request really blocked on sparse results — the
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
	blocks, err := o.asm.wait()
	if err != nil {
		return fmt.Errorf("%s: %w", o.name, err)
	}
	ws.SetBlocks(o.np.embBlob, blocks.RowRange(o.from, o.rows))
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
