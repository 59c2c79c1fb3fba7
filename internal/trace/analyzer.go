package trace

import (
	"sort"
	"time"
)

// RequestBreakdown is the per-request attribution the analyzer derives
// from raw spans, covering both sides of the paper's Figs. 8 and 9: the
// main-shard E2E latency stack and the bounding sparse shard's embedded
// latency stack, plus aggregate CPU accounting across all shards.
type RequestBreakdown struct {
	TraceID uint64

	// E2E is the end-to-end service latency measured at the main shard.
	E2E time.Duration

	// Main-shard latency stack components (Fig. 8a).
	DenseOps        time.Duration // non-sparse operator time at the main shard
	SparseOpsLocal  time.Duration // in-line SLS time at the main shard (singular only)
	EmbeddedPortion time.Duration // singular: SparseOpsLocal; distributed: Σ per-net time blocked on sparse results
	MainSerDe       time.Duration
	MainService     time.Duration
	MainNetOverhead time.Duration // includes async RPC scheduling cost

	// RPCCalls counts remote calls issued for this request.
	RPCCalls int

	// Bounding sparse-shard embedded stack (Fig. 8b): attribution inside
	// the slowest remote call.
	BoundShard       string
	BoundOutstanding time.Duration // outstanding at main for the bounding call
	BoundNetwork     time.Duration // outstanding − sparse-shard E2E (skew-immune)
	BoundSparseOps   time.Duration
	BoundSerDe       time.Duration
	BoundService     time.Duration
	BoundNetOverhead time.Duration

	// Aggregate CPU time across all shards (Fig. 9 categories).
	CPUOps     time.Duration // all operator execution, all shards
	CPUSerDe   time.Duration // all serialization, all shards
	CPUService time.Duration // service boilerplate + net overhead, all shards

	// PerShardOpTime is total operator time per shard (Figs. 10–12, 15).
	PerShardOpTime map[string]time.Duration
	// PerShardNetOpTime splits operator time per shard per net (Fig. 10).
	PerShardNetOpTime map[string]map[string]time.Duration
}

// TotalCPU returns the summed CPU attribution across categories.
func (b *RequestBreakdown) TotalCPU() time.Duration {
	return b.CPUOps + b.CPUSerDe + b.CPUService
}

// Analyze reconstructs per-request breakdowns from a raw span dump.
// mainShard names the shard whose LayerRequest span is the request E2E.
// Traces missing a main-shard request span are skipped (partial traces
// from warmup or failures).
func Analyze(spans []Span, mainShard string) []RequestBreakdown {
	byTrace := make(map[uint64][]Span)
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	ids := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := make([]RequestBreakdown, 0, len(ids))
	for _, id := range ids {
		if b, ok := analyzeTrace(id, byTrace[id], mainShard); ok {
			out = append(out, b)
		}
	}
	return out
}

// AnalyzeOne derives the breakdown for a single trace's spans (all
// sharing one trace ID — the live tracer's per-trace buffers). It
// reports ok=false when the spans are empty or lack the main-shard
// request span that anchors the attribution.
func AnalyzeOne(spans []Span, mainShard string) (RequestBreakdown, bool) {
	if len(spans) == 0 {
		return RequestBreakdown{}, false
	}
	return analyzeTrace(spans[0].TraceID, spans, mainShard)
}

func analyzeTrace(id uint64, spans []Span, mainShard string) (RequestBreakdown, bool) {
	b := RequestBreakdown{
		TraceID:           id,
		PerShardOpTime:    make(map[string]time.Duration),
		PerShardNetOpTime: make(map[string]map[string]time.Duration),
	}
	// Index sparse-side spans by call id for bounding-call attribution.
	calleeByCall := make(map[uint64][]Span)
	// Per net, the longest a batch blocked on its pooled results; and the
	// slowest remote call of the request.
	perNetWait := make(map[string]time.Duration)
	var bounding Span

	foundE2E := false
	for _, s := range spans {
		atMain := s.Shard == mainShard
		switch s.Layer {
		case LayerRequest:
			if atMain {
				b.E2E = s.Dur
				foundE2E = true
			} else {
				calleeByCall[s.CallID] = append(calleeByCall[s.CallID], s)
			}
		case LayerOp:
			if s.Kind == "Wait" {
				// Synchronization on asynchronous results: this time is
				// the embedded portion, not operator compute. A net's
				// batches wait in parallel, so the longest one is what the
				// request saw.
				if atMain {
					perNetWait[s.Net] = max(perNetWait[s.Net], s.Dur)
				}
				continue
			}
			b.PerShardOpTime[s.Shard] += s.Dur
			netMap := b.PerShardNetOpTime[s.Shard]
			if netMap == nil {
				netMap = make(map[string]time.Duration)
				b.PerShardNetOpTime[s.Shard] = netMap
			}
			netMap[s.Net] += s.Dur
			b.CPUOps += s.Dur
			if atMain {
				switch s.Kind {
				case "Sparse":
					b.SparseOpsLocal += s.Dur
				case "RPC":
					// The RPC op's span is dominated by request
					// serialization (the issue itself is a queue push):
					// book it as serde, matching Fig. 8a's categories.
					b.MainSerDe += s.Dur
					b.CPUSerDe += s.Dur
					b.CPUOps -= s.Dur // reclassified
				default:
					b.DenseOps += s.Dur
				}
			} else {
				calleeByCall[s.CallID] = append(calleeByCall[s.CallID], s)
			}
		case LayerSerDe:
			b.CPUSerDe += s.Dur
			if atMain {
				b.MainSerDe += s.Dur
			} else {
				calleeByCall[s.CallID] = append(calleeByCall[s.CallID], s)
			}
		case LayerService:
			b.CPUService += s.Dur
			if atMain {
				b.MainService += s.Dur
			} else {
				calleeByCall[s.CallID] = append(calleeByCall[s.CallID], s)
			}
		case LayerNetOverhead:
			b.CPUService += s.Dur
			if atMain {
				b.MainNetOverhead += s.Dur
			} else {
				calleeByCall[s.CallID] = append(calleeByCall[s.CallID], s)
			}
		case LayerRPCCall:
			if atMain {
				b.RPCCalls++
				if s.Dur > bounding.Dur {
					bounding = s
				}
			}
		}
	}
	if !foundE2E {
		return b, false
	}

	// Embedded portion: singular requests pool in-line; distributed
	// requests block, net after net, on whatever of their sparse calls
	// the dense work ahead of each net's first consumer did not hide. One
	// call may serve several nets and overlap dense work, so summing call
	// durations would count time the request never waited.
	if len(perNetWait) == 0 && b.RPCCalls == 0 {
		b.EmbeddedPortion = b.SparseOpsLocal
	} else {
		for _, d := range perNetWait {
			b.EmbeddedPortion += d
		}
		b.BoundOutstanding = bounding.Dur
		// Attribute inside the bounding call using the callee's spans.
		var calleeE2E time.Duration
		sawCalleeE2E := false
		for _, s := range calleeByCall[bounding.CallID] {
			switch s.Layer {
			case LayerRequest:
				calleeE2E = s.Dur
				b.BoundShard = s.Shard
				sawCalleeE2E = true
			case LayerOp:
				b.BoundSparseOps += s.Dur
			case LayerSerDe:
				b.BoundSerDe += s.Dur
			case LayerService:
				b.BoundService += s.Dur
			case LayerNetOverhead:
				b.BoundNetOverhead += s.Dur
			}
		}
		// Network time is outstanding − callee E2E, and only meaningful
		// when the callee's request span actually arrived: with it missing
		// (full store, partial trace) the subtraction would book the
		// whole outstanding window as network.
		if sawCalleeE2E {
			if net := bounding.Dur - calleeE2E; net > 0 {
				b.BoundNetwork = net
			}
		}
	}
	return b, true
}

// Component extracts a named duration from a breakdown; the experiment
// drivers use it to compute per-component quantiles declaratively.
type Component func(*RequestBreakdown) time.Duration

// Standard component extractors.
var (
	CompE2E             Component = func(b *RequestBreakdown) time.Duration { return b.E2E }
	CompDenseOps        Component = func(b *RequestBreakdown) time.Duration { return b.DenseOps }
	CompEmbedded        Component = func(b *RequestBreakdown) time.Duration { return b.EmbeddedPortion }
	CompMainSerDe       Component = func(b *RequestBreakdown) time.Duration { return b.MainSerDe }
	CompMainService     Component = func(b *RequestBreakdown) time.Duration { return b.MainService }
	CompMainNetOverhead Component = func(b *RequestBreakdown) time.Duration { return b.MainNetOverhead }
	CompTotalCPU        Component = func(b *RequestBreakdown) time.Duration { return b.TotalCPU() }
	CompBoundNetwork    Component = func(b *RequestBreakdown) time.Duration { return b.BoundNetwork }
	CompBoundSparseOps  Component = func(b *RequestBreakdown) time.Duration { return b.BoundSparseOps }
	CompBoundSerDe      Component = func(b *RequestBreakdown) time.Duration { return b.BoundSerDe }
	CompBoundService    Component = func(b *RequestBreakdown) time.Duration { return b.BoundService }
	CompBoundNetOh      Component = func(b *RequestBreakdown) time.Duration { return b.BoundNetOverhead }
)

// ComponentSeconds maps a component over breakdowns, in seconds.
func ComponentSeconds(bs []RequestBreakdown, c Component) []float64 {
	out := make([]float64, len(bs))
	for i := range bs {
		out[i] = c(&bs[i]).Seconds()
	}
	return out
}
