package trace

import (
	"sync"
	"testing"
	"time"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder("main", 10)
	if r.Shard() != "main" || r.Len() != 0 {
		t.Fatal("fresh recorder wrong")
	}
	r.Record(Span{TraceID: 1, Layer: LayerOp, Name: "fc"})
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	spans := r.Spans()
	if spans[0].Shard != "main" {
		t.Error("Record must stamp the shard name")
	}
	r.Reset()
	if r.Len() != 0 || r.Drops() != 0 {
		t.Error("Reset should clear state")
	}
}

func TestRecorderDropsWhenFull(t *testing.T) {
	r := NewRecorder("s", 2)
	for i := 0; i < 5; i++ {
		r.Record(Span{TraceID: uint64(i)})
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if r.Drops() != 3 {
		t.Errorf("Drops = %d, want 3", r.Drops())
	}
}

// Eight writers offer three chunks' worth each to a recorder whose
// capacity ends mid-chunk: every span is kept or counted, no slot is
// clobbered, and the chunk table ends exactly as full as the capacity.
func TestRecorderConcurrentAppend(t *testing.T) {
	const (
		writers  = 8
		each     = 3 * chunkSpans
		capacity = 20*chunkSpans + 100
	)
	r := NewRecorder("s", capacity)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(testSpan(uint64(g*each + i + 1)))
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != capacity || int(r.Drops()) != writers*each-capacity {
		t.Fatalf("Len=%d Drops=%d of %d offered to capacity %d", r.Len(), r.Drops(), writers*each, capacity)
	}
	spans := r.Spans()
	if len(spans) != capacity {
		t.Fatalf("Spans returned %d of %d", len(spans), capacity)
	}
	seen := make(map[uint64]bool)
	for _, s := range spans {
		if seen[s.TraceID] {
			t.Fatalf("duplicate span %d — racing appends clobbered slots", s.TraceID)
		}
		seen[s.TraceID] = true
		if want := testSpan(s.TraceID); !sameSpan(s, want, "s") {
			t.Fatalf("span %d came back as %+v", s.TraceID, s)
		}
	}
	installed := 0
	for i := range r.chunks {
		if r.chunks[i].Load() != nil {
			installed++
		}
	}
	if want := (capacity + chunkSpans - 1) / chunkSpans; installed != want || len(r.chunks) != want {
		t.Errorf("%d of %d chunks installed, want %d", installed, len(r.chunks), want)
	}
}

func TestRecorderClockSkew(t *testing.T) {
	r := NewRecorder("s", 1)
	r.SetClockSkew(time.Hour)
	now := r.Now()
	if d := time.Until(now); d < 59*time.Minute {
		t.Errorf("skewed Now should be ~1h ahead, delta %v", d)
	}
}

func TestIDAllocator(t *testing.T) {
	var a IDAllocator
	id1, id2 := a.NewTraceID(), a.NewTraceID()
	if id1 == 0 || id1 == id2 {
		t.Errorf("ids must be unique and non-zero: %d %d", id1, id2)
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	r1, r2 := NewRecorder("a", 4), NewRecorder("b", 4)
	c.Attach(r1)
	c.Attach(r2)
	r1.Record(Span{TraceID: 1})
	r2.Record(Span{TraceID: 2})
	all := c.Gather()
	if len(all) != 2 {
		t.Fatalf("Gather = %d spans", len(all))
	}
	c.Reset()
	if len(c.Gather()) != 0 {
		t.Error("Reset should clear recorders")
	}
	if c.TotalDrops() != 0 {
		t.Error("TotalDrops should be 0")
	}
}

func TestLayerString(t *testing.T) {
	if LayerSerDe.String() != "RPC Ser/De" || Layer(99).String() != "Unknown" {
		t.Error("layer names wrong")
	}
}

func TestContextString(t *testing.T) {
	if (Context{TraceID: 1, CallID: 2}).String() == "" {
		t.Error("context string empty")
	}
}

// buildTrace fabricates the span set of one distributed request:
// main shard with dense ops and two RPC calls to different nets' shards.
func buildTrace(traceID uint64, skewed bool) []Span {
	base := time.Now()
	sparseStart := base
	if skewed {
		// Sparse shard clock is 1 minute behind: timestamps diverge but
		// durations do not.
		sparseStart = base.Add(-time.Minute)
	}
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	return []Span{
		// Main shard.
		{TraceID: traceID, Shard: "main", Layer: LayerRequest, Start: base, Dur: ms(100)},
		{TraceID: traceID, Shard: "main", Layer: LayerSerDe, Start: base, Dur: ms(5)},
		{TraceID: traceID, Shard: "main", Layer: LayerService, Start: base, Dur: ms(3)},
		{TraceID: traceID, Shard: "main", Layer: LayerNetOverhead, Net: "net1", Start: base, Dur: ms(2)},
		{TraceID: traceID, Shard: "main", Layer: LayerOp, Kind: "Dense", Net: "net1", Name: "fc1", Start: base, Dur: ms(40)},
		{TraceID: traceID, Shard: "main", Layer: LayerOp, Kind: "RPC", Net: "net1", Name: "rpc-issue", Start: base, Dur: ms(1)},
		// Two RPC calls in net1; call 11 is bounding (30ms vs 10ms).
		{TraceID: traceID, CallID: 11, Shard: "main", Layer: LayerRPCCall, Net: "net1", Start: base, Dur: ms(30)},
		{TraceID: traceID, CallID: 12, Shard: "main", Layer: LayerRPCCall, Net: "net1", Start: base, Dur: ms(10)},
		// One call in net2 (sequential net): adds to embedded portion.
		{TraceID: traceID, CallID: 13, Shard: "main", Layer: LayerRPCCall, Net: "net2", Start: base, Dur: ms(8)},
		// What each net's batches blocked for: the embedded portion.
		{TraceID: traceID, Shard: "main", Layer: LayerOp, Kind: "Wait", Net: "net1", Name: "wait_net1", Start: base, Dur: ms(30)},
		{TraceID: traceID, Shard: "main", Layer: LayerOp, Kind: "Wait", Net: "net1", Name: "wait_net1", Start: base, Dur: ms(12)},
		{TraceID: traceID, Shard: "main", Layer: LayerOp, Kind: "Wait", Net: "net2", Name: "wait_net2", Start: base, Dur: ms(8)},
		// Bounding sparse shard (call 11), possibly skewed clock.
		{TraceID: traceID, CallID: 11, Shard: "sparse1", Layer: LayerRequest, Start: sparseStart, Dur: ms(22)},
		{TraceID: traceID, CallID: 11, Shard: "sparse1", Layer: LayerSerDe, Start: sparseStart, Dur: ms(4)},
		{TraceID: traceID, CallID: 11, Shard: "sparse1", Layer: LayerService, Start: sparseStart, Dur: ms(2)},
		{TraceID: traceID, CallID: 11, Shard: "sparse1", Layer: LayerNetOverhead, Net: "net1", Start: sparseStart, Dur: ms(1)},
		{TraceID: traceID, CallID: 11, Shard: "sparse1", Layer: LayerOp, Kind: "Sparse", Net: "net1", Name: "sls", Start: sparseStart, Dur: ms(9)},
		// Non-bounding shard spans should not contaminate bound stats.
		{TraceID: traceID, CallID: 12, Shard: "sparse2", Layer: LayerRequest, Start: sparseStart, Dur: ms(7)},
		{TraceID: traceID, CallID: 12, Shard: "sparse2", Layer: LayerOp, Kind: "Sparse", Net: "net1", Name: "sls", Start: sparseStart, Dur: ms(3)},
		{TraceID: traceID, CallID: 13, Shard: "sparse3", Layer: LayerRequest, Start: sparseStart, Dur: ms(6)},
		{TraceID: traceID, CallID: 13, Shard: "sparse3", Layer: LayerOp, Kind: "Sparse", Net: "net2", Name: "sls", Start: sparseStart, Dur: ms(2)},
	}
}

func TestAnalyzeDistributedRequest(t *testing.T) {
	for _, skewed := range []bool{false, true} {
		bs := Analyze(buildTrace(7, skewed), "main")
		if len(bs) != 1 {
			t.Fatalf("skew=%v: got %d breakdowns", skewed, len(bs))
		}
		b := bs[0]
		ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
		if b.E2E != ms(100) {
			t.Errorf("E2E = %v", b.E2E)
		}
		if b.DenseOps != ms(40) {
			t.Errorf("DenseOps = %v", b.DenseOps)
		}
		// Embedded = net1's longest wait (30) + net2's (8).
		if b.EmbeddedPortion != ms(38) {
			t.Errorf("EmbeddedPortion = %v, want 38ms", b.EmbeddedPortion)
		}
		if b.RPCCalls != 3 {
			t.Errorf("RPCCalls = %d, want 3", b.RPCCalls)
		}
		if b.BoundShard != "sparse1" || b.BoundOutstanding != ms(30) {
			t.Errorf("bounding call wrong: %s %v", b.BoundShard, b.BoundOutstanding)
		}
		// Network = outstanding(30) − sparse E2E(22) = 8ms, regardless of
		// clock skew — the paper's skew-immune estimator.
		if b.BoundNetwork != ms(8) {
			t.Errorf("skew=%v: BoundNetwork = %v, want 8ms", skewed, b.BoundNetwork)
		}
		if b.BoundSparseOps != ms(9) || b.BoundSerDe != ms(4) || b.BoundService != ms(2) || b.BoundNetOverhead != ms(1) {
			t.Errorf("bound stack wrong: %+v", b)
		}
		// RPC issue op (1ms) reclassified into MainSerDe (5+1).
		if b.MainSerDe != ms(6) {
			t.Errorf("MainSerDe = %v, want 6ms", b.MainSerDe)
		}
		if b.MainNetOverhead != ms(2) {
			t.Errorf("MainNetOverhead = %v, want 2ms", b.MainNetOverhead)
		}
		// CPU ops: 40 dense + 9 + 3 + 2 sparse = 54 (RPC-issue excluded).
		if b.CPUOps != ms(54) {
			t.Errorf("CPUOps = %v, want 54ms", b.CPUOps)
		}
		if b.PerShardOpTime["sparse1"] != ms(9) || b.PerShardOpTime["main"] != ms(41) {
			t.Errorf("per-shard op time: %v", b.PerShardOpTime)
		}
		if b.PerShardNetOpTime["sparse3"]["net2"] != ms(2) {
			t.Errorf("per-shard-net op time: %v", b.PerShardNetOpTime)
		}
	}
}

func TestAnalyzeSingularRequest(t *testing.T) {
	base := time.Now()
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	spans := []Span{
		{TraceID: 1, Shard: "main", Layer: LayerRequest, Start: base, Dur: ms(50)},
		{TraceID: 1, Shard: "main", Layer: LayerOp, Kind: "Dense", Name: "fc", Start: base, Dur: ms(30)},
		{TraceID: 1, Shard: "main", Layer: LayerOp, Kind: "Sparse", Name: "sls", Start: base, Dur: ms(5)},
	}
	bs := Analyze(spans, "main")
	if len(bs) != 1 {
		t.Fatal("expected one breakdown")
	}
	b := bs[0]
	if b.EmbeddedPortion != ms(5) || b.SparseOpsLocal != ms(5) {
		t.Errorf("singular embedded portion = %v", b.EmbeddedPortion)
	}
	if b.RPCCalls != 0 || b.BoundShard != "" {
		t.Errorf("singular should have no RPC attribution: %+v", b)
	}
}

func TestAnalyzeSkipsPartialTraces(t *testing.T) {
	spans := []Span{
		{TraceID: 5, Shard: "sparse1", Layer: LayerRequest, Dur: time.Millisecond},
	}
	if bs := Analyze(spans, "main"); len(bs) != 0 {
		t.Errorf("trace without main E2E should be skipped, got %d", len(bs))
	}
}

func TestAnalyzeMultipleTracesSorted(t *testing.T) {
	var spans []Span
	for _, id := range []uint64{42, 7, 19} {
		spans = append(spans, Span{TraceID: id, Shard: "main", Layer: LayerRequest, Dur: time.Duration(id)})
	}
	bs := Analyze(spans, "main")
	if len(bs) != 3 || bs[0].TraceID != 7 || bs[2].TraceID != 42 {
		t.Errorf("breakdowns should be sorted by trace id: %v", bs)
	}
}

func TestComponentSeconds(t *testing.T) {
	bs := []RequestBreakdown{{E2E: time.Second}, {E2E: 2 * time.Second}}
	xs := ComponentSeconds(bs, CompE2E)
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 2 {
		t.Errorf("ComponentSeconds = %v", xs)
	}
}

func TestTotalCPU(t *testing.T) {
	b := RequestBreakdown{CPUOps: 1, CPUSerDe: 2, CPUService: 3}
	if b.TotalCPU() != 6 {
		t.Errorf("TotalCPU = %v", b.TotalCPU())
	}
}
