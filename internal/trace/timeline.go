package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Timeline reconstructs the paper's Fig. 3 view of one request: shards as
// horizontal slices, each span drawn against a common time axis, with the
// asynchronous sparse-shard calls visible under the main shard's dense
// work.
//
// Clock skew makes raw cross-shard timestamps incomparable, so callee
// shards are re-aligned into the caller's frame: each remote call's
// callee-side E2E span is centered inside the caller's outstanding window
// (splitting the unobservable network time evenly between directions, the
// standard trick in distributed-trace visualizers).
type Timeline struct {
	TraceID uint64
	rows    []timelineRow
	start   time.Time
	end     time.Time
}

type timelineRow struct {
	shard string
	name  string
	layer Layer
	start time.Time
	dur   time.Duration
}

// BuildTimeline assembles a timeline for one trace from a span dump.
// mainShard anchors the time axis. It returns an error if the trace has
// no main-shard spans.
func BuildTimeline(spans []Span, traceID uint64, mainShard string) (*Timeline, error) {
	var mine []Span
	for _, s := range spans {
		if s.TraceID == traceID {
			mine = append(mine, s)
		}
	}
	if len(mine) == 0 {
		return nil, fmt.Errorf("trace: no spans for trace %d", traceID)
	}

	// Per-shard realignment offsets derived from call windows.
	offsets := computeOffsets(mine, mainShard)

	t := &Timeline{TraceID: traceID}
	for _, s := range mine {
		start := s.Start.Add(offsets[s.Shard])
		t.rows = append(t.rows, timelineRow{
			shard: s.Shard, name: s.Name, layer: s.Layer, start: start, dur: s.Dur,
		})
		if t.start.IsZero() || start.Before(t.start) {
			t.start = start
		}
		if end := start.Add(s.Dur); end.After(t.end) {
			t.end = end
		}
	}
	hasMain := false
	for _, r := range t.rows {
		if r.shard == mainShard {
			hasMain = true
			break
		}
	}
	if !hasMain {
		return nil, fmt.Errorf("trace: trace %d has no %s spans", traceID, mainShard)
	}
	sort.SliceStable(t.rows, func(i, j int) bool {
		if t.rows[i].shard != t.rows[j].shard {
			// Main shard first, then sparse shards in name order.
			if t.rows[i].shard == mainShard {
				return true
			}
			if t.rows[j].shard == mainShard {
				return false
			}
			return t.rows[i].shard < t.rows[j].shard
		}
		return t.rows[i].start.Before(t.rows[j].start)
	})
	return t, nil
}

// computeOffsets derives per-shard clock adjustments: for each remote
// call, center the callee's E2E span within the caller's outstanding
// window. The first observed call per shard wins (jitter between calls is
// far below the skew being corrected).
func computeOffsets(spans []Span, mainShard string) map[string]time.Duration {
	type window struct {
		start time.Time
		dur   time.Duration
	}
	callerWin := make(map[uint64]window)
	for _, s := range spans {
		if s.Layer == LayerRPCCall && s.Shard == mainShard {
			callerWin[s.CallID] = window{start: s.Start, dur: s.Dur}
		}
	}
	offsets := map[string]time.Duration{mainShard: 0}
	for _, s := range spans {
		if s.Layer != LayerRequest || s.Shard == mainShard {
			continue
		}
		if _, done := offsets[s.Shard]; done {
			continue
		}
		w, ok := callerWin[s.CallID]
		if !ok {
			continue
		}
		oneWay := (w.dur - s.Dur) / 2
		if oneWay < 0 {
			oneWay = 0
		}
		wantStart := w.start.Add(oneWay)
		offsets[s.Shard] = wantStart.Sub(s.Start)
	}
	return offsets
}

// Duration returns the timeline's total extent.
func (t *Timeline) Duration() time.Duration { return t.end.Sub(t.start) }

// Render draws the timeline as ASCII art, width columns wide. Layers use
// distinct glyphs: '=' operators, '~' serde, '-' service/request extents,
// '>' RPC outstanding windows, '.' net overhead.
func (t *Timeline) Render(width int) string {
	if width < 20 {
		width = 80
	}
	total := t.Duration()
	if total <= 0 {
		total = time.Nanosecond
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d — %v total (spans realigned to the main shard's clock)\n", t.TraceID, total.Round(time.Microsecond))
	scale := func(tm time.Time) int {
		f := float64(tm.Sub(t.start)) / float64(total)
		col := int(f * float64(width))
		if col < 0 {
			col = 0
		}
		if col > width {
			col = width
		}
		return col
	}
	lastShard := ""
	for _, r := range t.rows {
		if r.shard != lastShard {
			fmt.Fprintf(&b, "%s\n", strings.Repeat("-", width+28))
			lastShard = r.shard
		}
		lo := scale(r.start)
		hi := scale(r.start.Add(r.dur))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat(glyph(r.layer), hi-lo) + strings.Repeat(" ", width-hi)
		fmt.Fprintf(&b, "%-8s %-18s |%s|\n", r.shard, truncateName(r.name, 18), bar)
	}
	return b.String()
}

func glyph(l Layer) string {
	switch l {
	case LayerOp:
		return "="
	case LayerSerDe:
		return "~"
	case LayerRPCCall:
		return ">"
	case LayerNetOverhead:
		return "."
	default:
		return "-"
	}
}

func truncateName(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
