package core

import (
	"fmt"
	"slices"

	"repro/internal/embedding"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// BatchItem pairs one request with its own trace context inside a
// coalesced engine execution. The serving frontend collects concurrent
// requests into a []BatchItem; the engine runs them as one execution and
// demuxes outputs and spans back per request.
type BatchItem struct {
	Ctx trace.Context
	Req *RankingRequest
}

// ExecuteBatch runs several ranking requests as one coalesced engine
// execution: the requests' items are concatenated into a single combined
// request, executed through the normal batch-parallel path, and the
// scores are demuxed back per request. Per-item scores are independent of
// how items are grouped into executions (every operator is row- or
// bag-local until the final per-item head), so outputs are identical to
// running each request through Execute alone.
//
// All requests are validated before any work runs, and an error —
// validation or execution — fails the whole batch: the requests shared
// the execution. Callers that need per-request fault isolation (the
// serving frontend) must Validate each request before coalescing it.
func (e *Engine) ExecuteBatch(items []BatchItem) ([][]float32, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if len(items) == 1 {
		out, err := e.Execute(items[0].Ctx, items[0].Req)
		if err != nil {
			return nil, err
		}
		return [][]float32{out}, nil
	}
	total := 0
	for _, it := range items {
		if err := e.Validate(it.Req); err != nil {
			return nil, err
		}
		total += int(it.Req.Items)
	}
	e.met.batchRequests.Observe(int64(len(items)))
	e.met.batchItems.Observe(int64(total))

	coalesceStart := e.cfg.Recorder.Now()
	combined, bufs := e.coalesce(items, total)
	start := e.cfg.Recorder.Now()
	e.met.coalesceNs.Observe(int64(start.Sub(coalesceStart)))
	scores, err := e.executeValidated(items[0].Ctx, combined)
	dur := e.cfg.Recorder.Now().Sub(start)
	e.met.executeNs.Observe(int64(dur))
	// The execution is over and nothing below retains the combined
	// request's tensors or bag lists, so its buffers can back the next
	// coalesced batch.
	defer e.combined.Put(bufs)
	// Demux the execution span per request: every coalesced request rode
	// the same engine execution, so each one's trace shows the full
	// coalesced service time under its own trace id.
	for _, it := range items {
		e.cfg.Recorder.Record(trace.Span{
			TraceID: it.Ctx.TraceID, CallID: it.Ctx.CallID,
			Layer: trace.LayerRequest, Name: "rank/coalesced",
			Start: start, Dur: dur,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("core: coalesced batch of %d: %w", len(items), err)
	}

	demuxStart := e.cfg.Recorder.Now()
	out := make([][]float32, len(items))
	off := 0
	for i, it := range items {
		n := int(it.Req.Items)
		// Copy per request: a full-capacity subslice would alias every
		// response to one backing array, so a caller retaining one
		// response would pin the whole coalesced batch's scores (and a
		// caller growing one could reach its neighbors').
		out[i] = append(make([]float32, 0, n), scores[off:off+n]...)
		off += n
	}
	e.met.demuxNs.Observe(int64(e.cfg.Recorder.Now().Sub(demuxStart)))
	return out, nil
}

// combinedBufs holds one recyclable coalesced request: the request
// struct itself (with its map, matrix headers and table list) plus the
// slabs backing its tensors and its bag lists. Only the capacities and
// map keys matter across uses; contents are rewritten every batch, and
// nothing in them refers to the requests they were copied from.
type combinedBufs struct {
	req   RankingRequest
	dense map[string][]float32
	// lens and idx back every table's combined bag list.
	lens, idx []int32
}

// coalesce concatenates the items' validated requests into one combined
// request of `total` items, in item order, drawing the request, its
// map and headers, and its backing buffers from the engine's pool so
// steady-state batching does not reallocate the combined tensors. A
// table's combined bag list is its lists' lengths, then their indices,
// each moved with one copy per request. The caller returns bufs to the
// pool once the execution has fully completed.
func (e *Engine) coalesce(items []BatchItem, total int) (*RankingRequest, *combinedBufs) {
	tables := e.model.Config.Tables
	bufs, _ := e.combined.Get().(*combinedBufs)
	if bufs == nil {
		bufs = &combinedBufs{
			req: RankingRequest{
				Dense: make(map[string]*tensor.Matrix, len(e.model.Config.Nets)),
				Bags:  make([]TableBags, len(tables)),
			},
			dense: make(map[string][]float32, len(e.model.Config.Nets)),
		}
	}
	combined := &bufs.req
	combined.ID = items[0].Req.ID
	combined.Items = int32(total)
	for _, ns := range e.model.Config.Nets {
		need := total * ns.DenseDim
		buf := bufs.dense[ns.Name]
		if cap(buf) < need {
			buf = make([]float32, need)
		}
		buf = buf[:need]
		bufs.dense[ns.Name] = buf
		off := 0
		for _, it := range items {
			src := it.Req.Dense[ns.Name]
			copy(buf[off:off+len(src.Data)], src.Data)
			off += len(src.Data)
		}
		m := combined.Dense[ns.Name]
		if m == nil {
			m = &tensor.Matrix{}
			combined.Dense[ns.Name] = m
		}
		m.Rows, m.Cols, m.Data = total, ns.DenseDim, buf
	}
	indices := 0
	for _, it := range items {
		for _, t := range tables {
			l, _ := it.Req.BagsOf(int32(t.ID))
			indices += len(l.Indices)
		}
	}
	lens, idx := slices.Grow(bufs.lens[:0], total*len(tables)), slices.Grow(bufs.idx[:0], indices)
	for i, t := range tables {
		l0, i0 := len(lens), len(idx)
		for _, it := range items {
			l, _ := it.Req.BagsOf(int32(t.ID))
			lens, idx = append(lens, l.Lens...), append(idx, l.Indices...)
		}
		combined.Bags[i] = TableBags{TableID: int32(t.ID), BagList: embedding.BagList{
			Lens: lens[l0:len(lens):len(lens)], Indices: idx[i0:len(idx):len(idx)],
		}}
	}
	bufs.lens, bufs.idx = lens, idx
	return combined, bufs
}
