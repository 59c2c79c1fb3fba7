package trace

import (
	"testing"
	"time"
)

// A request whose trace holds only the main-shard request span — zero
// RPC calls, zero ops, no net-overhead span — must produce an all-zero
// breakdown (its E2E aside), never a negative residual.
func TestAnalyzeZeroRPCTraceIsZeroBreakdown(t *testing.T) {
	base := time.Now()
	spans := []Span{
		{TraceID: 3, Shard: "main", Layer: LayerRequest, Start: base, Dur: 40 * time.Millisecond},
	}
	bs := Analyze(spans, "main")
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bs))
	}
	b := bs[0]
	if b.E2E != 40*time.Millisecond {
		t.Errorf("E2E = %v", b.E2E)
	}
	for name, d := range map[string]time.Duration{
		"DenseOps": b.DenseOps, "SparseOpsLocal": b.SparseOpsLocal,
		"EmbeddedPortion": b.EmbeddedPortion, "MainSerDe": b.MainSerDe,
		"MainService": b.MainService, "MainNetOverhead": b.MainNetOverhead,
		"BoundOutstanding": b.BoundOutstanding, "BoundNetwork": b.BoundNetwork,
		"BoundSparseOps": b.BoundSparseOps, "BoundSerDe": b.BoundSerDe,
		"BoundService": b.BoundService, "BoundNetOverhead": b.BoundNetOverhead,
		"CPUOps": b.CPUOps, "CPUSerDe": b.CPUSerDe, "CPUService": b.CPUService,
	} {
		if d != 0 {
			t.Errorf("%s = %v, want 0", name, d)
		}
	}
	if b.RPCCalls != 0 || b.BoundShard != "" {
		t.Errorf("unexpected RPC attribution: %+v", b)
	}
}

// When the bounding call's callee-side request span is missing (full
// store, partial trace), the analyzer cannot separate network time from
// callee service time — it must report BoundNetwork 0, not book the
// entire outstanding window as network.
func TestAnalyzeMissingCalleeRequestSpan(t *testing.T) {
	base := time.Now()
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	spans := []Span{
		{TraceID: 9, Shard: "main", Layer: LayerRequest, Start: base, Dur: ms(100)},
		{TraceID: 9, CallID: 21, Shard: "main", Layer: LayerRPCCall, Net: "net1", Start: base, Dur: ms(30)},
		// Callee ops arrived; the callee's LayerRequest span did not.
		{TraceID: 9, CallID: 21, Shard: "sparse1", Layer: LayerOp, Kind: "Sparse", Net: "net1", Start: base, Dur: ms(9)},
	}
	bs := Analyze(spans, "main")
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bs))
	}
	b := bs[0]
	if b.BoundOutstanding != ms(30) {
		t.Errorf("BoundOutstanding = %v, want 30ms", b.BoundOutstanding)
	}
	if b.BoundNetwork != 0 {
		t.Errorf("BoundNetwork = %v, want 0 (callee E2E unknown)", b.BoundNetwork)
	}
	if b.BoundSparseOps != ms(9) {
		t.Errorf("BoundSparseOps = %v, want 9ms", b.BoundSparseOps)
	}
}

// A missing net-overhead span (the framework span the observer emits per
// net) must leave every component non-negative: the categories are sums,
// and absent spans contribute zero, not a negative residual.
func TestAnalyzeMissingNetOverheadSpan(t *testing.T) {
	base := time.Now()
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	spans := []Span{
		{TraceID: 4, Shard: "main", Layer: LayerRequest, Start: base, Dur: ms(50)},
		{TraceID: 4, Shard: "main", Layer: LayerOp, Kind: "Dense", Net: "net1", Name: "fc", Start: base, Dur: ms(48)},
		// No LayerNetOverhead span anywhere — e.g. the store filled after
		// the operator spans were recorded.
	}
	bs := Analyze(spans, "main")
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bs))
	}
	b := bs[0]
	if b.MainNetOverhead != 0 || b.CPUService != 0 {
		t.Errorf("overhead categories should be 0: netoh=%v service=%v", b.MainNetOverhead, b.CPUService)
	}
	for name, d := range map[string]time.Duration{
		"DenseOps": b.DenseOps, "MainSerDe": b.MainSerDe, "MainService": b.MainService,
		"MainNetOverhead": b.MainNetOverhead, "EmbeddedPortion": b.EmbeddedPortion,
		"BoundNetwork": b.BoundNetwork, "CPUOps": b.CPUOps, "CPUSerDe": b.CPUSerDe,
		"CPUService": b.CPUService,
	} {
		if d < 0 {
			t.Errorf("%s = %v, must be non-negative", name, d)
		}
	}
}

// One call per shard serves every net of a request and overlaps dense
// work, so call durations say nothing about what the request waited: the
// embedded portion is what each net's batches actually blocked for (the
// longest Wait span per net, summed over the sequential nets), while the
// bound stack and the call count still describe the calls themselves.
func TestAnalyzeCallSpanningNets(t *testing.T) {
	base := time.Now()
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	spans := []Span{
		{TraceID: 5, Shard: "main", Layer: LayerRequest, Start: base, Dur: ms(60)},
		{TraceID: 5, Shard: "main", Layer: LayerOp, Kind: "Dense", Net: "net1", Name: "fc", Start: base, Dur: ms(25)},
		{TraceID: 5, Shard: "main", Layer: LayerOp, Kind: "Dense", Net: "net2", Name: "fc", Start: base, Dur: ms(20)},
		// Two calls issued at admission, each covering both nets.
		{TraceID: 5, CallID: 31, Shard: "main", Layer: LayerRPCCall, Net: "net1+net2", Start: base, Dur: ms(18)},
		{TraceID: 5, CallID: 32, Shard: "main", Layer: LayerRPCCall, Net: "net1+net2", Start: base, Dur: ms(14)},
		// net1's two batches blocked 9 and 6 ms behind their bottom MLPs;
		// by net2 the rows had long arrived.
		{TraceID: 5, Shard: "main", Layer: LayerOp, Kind: "Wait", Net: "net1", Name: "wait_net1", Start: base, Dur: ms(9)},
		{TraceID: 5, Shard: "main", Layer: LayerOp, Kind: "Wait", Net: "net1", Name: "wait_net1", Start: base, Dur: ms(6)},
		{TraceID: 5, Shard: "main", Layer: LayerOp, Kind: "Wait", Net: "net2", Name: "wait_net2", Start: base, Dur: 0},
		{TraceID: 5, Shard: "main", Layer: LayerOp, Kind: "Wait", Net: "net2", Name: "wait_net2", Start: base, Dur: 0},
		{TraceID: 5, CallID: 31, Shard: "sparse1", Layer: LayerRequest, Start: base, Dur: ms(11)},
		{TraceID: 5, CallID: 31, Shard: "sparse1", Layer: LayerOp, Kind: "Sparse", Net: "net1", Name: "sls_sparse1", Start: base, Dur: ms(4)},
		{TraceID: 5, CallID: 31, Shard: "sparse1", Layer: LayerOp, Kind: "Sparse", Net: "net2", Name: "sls_sparse1", Start: base, Dur: ms(3)},
	}
	bs := Analyze(spans, "main")
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bs))
	}
	b := bs[0]
	if b.EmbeddedPortion != ms(9) {
		t.Errorf("EmbeddedPortion = %v, want 9ms (net1's longest wait; the 32ms of calls overlap dense work)", b.EmbeddedPortion)
	}
	if b.RPCCalls != 2 || b.BoundOutstanding != ms(18) || b.BoundShard != "sparse1" {
		t.Errorf("calls %d, bound %s %v; want 2, sparse1 18ms", b.RPCCalls, b.BoundShard, b.BoundOutstanding)
	}
	if b.BoundNetwork != ms(7) || b.BoundSparseOps != ms(7) {
		t.Errorf("bound network %v ops %v; want 7ms 7ms", b.BoundNetwork, b.BoundSparseOps)
	}
	if got := b.PerShardNetOpTime["sparse1"]; got["net1"] != ms(4) || got["net2"] != ms(3) {
		t.Errorf("shard op time by net = %v", got)
	}
	if stack := b.DenseOps + b.EmbeddedPortion + b.MainSerDe + b.MainService + b.MainNetOverhead; stack > b.E2E {
		t.Errorf("latency stack %v exceeds E2E %v", stack, b.E2E)
	}
}

// A call fully hidden behind dense work leaves nothing to wait for: the
// embedded portion is zero — not the call's duration, and never the
// negative of anything — though the call is still counted and bounded.
func TestAnalyzeCallHiddenBehindDenseWork(t *testing.T) {
	base := time.Now()
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	spans := []Span{
		{TraceID: 6, Shard: "main", Layer: LayerRequest, Start: base, Dur: ms(30)},
		{TraceID: 6, Shard: "main", Layer: LayerOp, Kind: "Dense", Net: "net1", Name: "fc", Start: base, Dur: ms(28)},
		{TraceID: 6, CallID: 41, Shard: "main", Layer: LayerRPCCall, Net: "net1", Start: base, Dur: ms(12)},
		{TraceID: 6, Shard: "main", Layer: LayerOp, Kind: "Wait", Net: "net1", Name: "wait_net1", Start: base, Dur: 0},
	}
	bs := Analyze(spans, "main")
	if len(bs) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(bs))
	}
	b := bs[0]
	if b.EmbeddedPortion != 0 {
		t.Errorf("EmbeddedPortion = %v, want 0", b.EmbeddedPortion)
	}
	if b.RPCCalls != 1 || b.BoundOutstanding != ms(12) {
		t.Errorf("calls %d bound %v; want 1, 12ms", b.RPCCalls, b.BoundOutstanding)
	}
	if stack := b.DenseOps + b.EmbeddedPortion + b.MainSerDe + b.MainService + b.MainNetOverhead; stack > b.E2E {
		t.Errorf("latency stack %v exceeds E2E %v", stack, b.E2E)
	}
}

func TestAnalyzeOne(t *testing.T) {
	spans := buildTrace(7, false)
	b, ok := AnalyzeOne(spans, "main")
	if !ok {
		t.Fatal("AnalyzeOne failed on a complete trace")
	}
	if b.TraceID != 7 || b.E2E != 100*time.Millisecond {
		t.Errorf("breakdown = id %d e2e %v", b.TraceID, b.E2E)
	}
	if _, ok := AnalyzeOne(nil, "main"); ok {
		t.Error("AnalyzeOne(nil) should report !ok")
	}
	if _, ok := AnalyzeOne([]Span{{TraceID: 1, Shard: "sparse1", Layer: LayerRequest}}, "main"); ok {
		t.Error("AnalyzeOne without a main request span should report !ok")
	}
}

type captureSink struct {
	spans []Span
}

func (c *captureSink) ConsumeSpan(s Span) { c.spans = append(c.spans, s) }

func TestRecorderSinkTee(t *testing.T) {
	r := NewRecorder("main", 2)
	sink := &captureSink{}
	r.SetSink(sink)
	for i := 0; i < 4; i++ {
		r.Record(Span{TraceID: uint64(i + 1), Layer: LayerOp})
	}
	// The store drops past capacity 2; the sink sees everything.
	if r.Len() != 2 || r.Drops() != 2 {
		t.Fatalf("store len=%d drops=%d", r.Len(), r.Drops())
	}
	if len(sink.spans) != 4 {
		t.Fatalf("sink saw %d spans, want 4", len(sink.spans))
	}
	if sink.spans[0].Shard != "main" {
		t.Errorf("sink span shard = %q, want stamped %q", sink.spans[0].Shard, "main")
	}
	r.SetSink(nil)
	r.Record(Span{TraceID: 99})
	if len(sink.spans) != 4 {
		t.Error("sink still attached after SetSink(nil)")
	}
}
