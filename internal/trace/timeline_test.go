package trace

import (
	"strings"
	"testing"
	"time"
)

func timelineSpans(skew time.Duration) []Span {
	base := time.Unix(1000, 0)
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	at := func(d int) time.Time { return base.Add(ms(d)) }
	// Sparse shard clock runs `skew` ahead of the main shard's.
	sat := func(d int) time.Time { return base.Add(ms(d)).Add(skew) }
	return []Span{
		{TraceID: 1, Shard: "main", Layer: LayerRequest, Name: "rank", Start: at(0), Dur: ms(10)},
		{TraceID: 1, Shard: "main", Layer: LayerOp, Kind: "Dense", Name: "fc1", Start: at(1), Dur: ms(3)},
		{TraceID: 1, CallID: 5, Shard: "main", Layer: LayerRPCCall, Name: "rpc1", Start: at(2), Dur: ms(6)},
		// Callee handles the call for 2ms; with 6ms outstanding, one-way
		// network is 2ms each direction, so realigned start = 2 + 2 = 4ms.
		{TraceID: 1, CallID: 5, Shard: "sparse1", Layer: LayerRequest, Name: "sparse.run", Start: sat(100), Dur: ms(2)},
		{TraceID: 1, CallID: 5, Shard: "sparse1", Layer: LayerOp, Kind: "Sparse", Name: "sls", Start: sat(101), Dur: ms(1)},
		// Unrelated trace must be excluded.
		{TraceID: 2, Shard: "main", Layer: LayerRequest, Name: "rank", Start: at(50), Dur: ms(1)},
	}
}

func TestBuildTimelineAlignsSkewedShards(t *testing.T) {
	for _, skew := range []time.Duration{0, time.Minute, -time.Hour} {
		tl, err := BuildTimeline(timelineSpans(skew), 1, "main")
		if err != nil {
			t.Fatal(err)
		}
		// 5 spans belong to trace 1.
		if len(tl.rows) != 5 {
			t.Fatalf("skew=%v: %d rows, want 5", skew, len(tl.rows))
		}
		// The realigned callee request must start inside the caller's
		// outstanding window regardless of skew: at 4ms.
		var calleeStart time.Time
		for _, r := range tl.rows {
			if r.shard == "sparse1" && r.layer == LayerRequest {
				calleeStart = r.start
			}
		}
		want := time.Unix(1000, 0).Add(4 * time.Millisecond)
		if !calleeStart.Equal(want) {
			t.Errorf("skew=%v: callee start %v, want %v", skew, calleeStart, want)
		}
		if tl.Duration() != 10*time.Millisecond {
			t.Errorf("skew=%v: duration %v, want 10ms", skew, tl.Duration())
		}
	}
}

func TestTimelineRowOrdering(t *testing.T) {
	tl, err := BuildTimeline(timelineSpans(0), 1, "main")
	if err != nil {
		t.Fatal(err)
	}
	// Main shard rows first.
	if tl.rows[0].shard != "main" || tl.rows[len(tl.rows)-1].shard != "sparse1" {
		t.Errorf("ordering wrong: first=%s last=%s", tl.rows[0].shard, tl.rows[len(tl.rows)-1].shard)
	}
}

func TestTimelineRender(t *testing.T) {
	tl, err := BuildTimeline(timelineSpans(time.Minute), 1, "main")
	if err != nil {
		t.Fatal(err)
	}
	out := tl.Render(60)
	for _, want := range []string{"trace 1", "main", "sparse1", "rank", "sls", "="} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The RPC outstanding window renders with '>'.
	if !strings.Contains(out, ">") {
		t.Error("missing RPC window glyph")
	}
	// Every bar line must have identical width (aligned axis).
	var widths []int
	for _, line := range strings.Split(out, "\n") {
		if i := strings.IndexByte(line, '|'); i >= 0 {
			widths = append(widths, len(line))
		}
	}
	for _, w := range widths {
		if w != widths[0] {
			t.Fatalf("misaligned bars: widths %v", widths)
		}
	}
}

func TestBuildTimelineErrors(t *testing.T) {
	if _, err := BuildTimeline(nil, 1, "main"); err == nil {
		t.Error("empty span set should error")
	}
	spans := []Span{{TraceID: 1, Shard: "sparse1", Layer: LayerRequest, Dur: time.Millisecond}}
	if _, err := BuildTimeline(spans, 1, "main"); err == nil {
		t.Error("trace without main-shard spans should error")
	}
}
