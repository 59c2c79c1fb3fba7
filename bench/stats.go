package main

import (
	"sort"
	"time"

	"repro/internal/stats"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func quantile(xs []float64, q float64) float64 { return stats.NewSample(xs).Quantile(q) }

func mean(xs []float64) float64 { return stats.NewSample(xs).Mean() }

// windows is how many equal consecutive stretches of requests the timed
// stream is cut into, and windowFloor the fewest requests worth taking a
// p99 of.
const (
	windows     = 20
	windowFloor = 50
)

// window is what a caller and an operator saw over one stretch of the
// timed stream.
type window struct {
	p50, p99  float64 // ms, of the correct responses
	goodput   float64 // correct responses within the limit, per second
	cpuPerReq float64 // ms of process CPU per request sent
}

// cut cuts a phase, in send order, into equal consecutive windows of whole
// bursts. A window runs from the send of its first burst to the send of the
// next window's, the last to the end of the phase, so the windows tile the
// phase and each one's wall time and CPU are its own. Requests left over
// after the last whole window belong to none. A phase too short for
// windowFloor requests a window is one window. The second result is the
// number of requests in a window.
func cut(ph *phase, burst int, limitMs float64) ([]window, int) {
	n, size := windows, len(ph.samples)/windows
	size -= size % burst
	if size < windowFloor {
		n, size = 1, len(ph.samples)
	}
	var out []window
	for k := 0; k < n; k++ {
		from := ph.samples[k*size]
		end, cpu := ph.wall, ph.cpu
		if next := (k + 1) * size; next < len(ph.samples) {
			end, cpu = ph.samples[next].sent, ph.samples[next].cpu
		}
		var lat []float64
		good := 0
		for _, s := range ph.samples[k*size : (k+1)*size] {
			if !s.ok {
				continue
			}
			l := ms(s.latency())
			lat = append(lat, l)
			if l <= limitMs {
				good++
			}
		}
		if len(lat) == 0 {
			continue // nothing was answered; the run fails on its count
		}
		out = append(out, window{
			p50:       quantile(lat, 0.5),
			p99:       quantile(lat, 0.99),
			goodput:   float64(good) / (end - from.sent).Seconds(),
			cpuPerReq: ms(cpu-from.cpu) / float64(size),
		})
	}
	return out, size
}

// quiet is the value of one metric over a run's windows: the quartile on
// the good side, below which (above which, for a rate) a quarter of the
// windows lie. Everything that disturbs a window on a shared host - a
// neighbour taking the core, a collection, a late wake-up - makes it slower,
// never faster, so the disturbed windows are the slow ones and the good-side
// quartile is what the program does when left alone. It moves when a change
// moves most windows; a stall rarer than three windows in four is not in it
// (client.p99_whole_ms of the traced run is the whole stream's tail).
func quiet(ws []window, of func(window) float64, higher bool) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = of(w)
	}
	if higher {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

// interval is a half-open stretch of time in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once. A span's self time is its duration minus
// what its children cover. It sorts ivs in place.
func covered(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	at := lo
	for _, iv := range ivs {
		s, e := max(iv.start, at), min(iv.end, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}
