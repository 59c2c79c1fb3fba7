package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/stats"
)

// Fig1 renders the paper's motivation figure: historical recommendation
// model growth. The paper's series is proprietary production data ("both
// number of features and embeddings have grown an order of magnitude in
// only three years"); we emit a synthetic series with exactly that
// property — 10× growth in features and embedding capacity over three
// years on an exponential trend — as the substitution note in DESIGN.md
// records.
func (r *Runner) Fig1(w io.Writer) error {
	writeHeader(w, "Fig. 1 — Historical model growth (synthetic trend: 10x over 3 years)")
	quarters := 13 // 3 years, quarterly
	var x, feats, embs []float64
	for i := 0; i < quarters; i++ {
		t := float64(i) / float64(quarters-1) // 0..1 over 3 years
		x = append(x, 2017+3*t)
		// 10^t growth, normalized to 1.0 at the start.
		feats = append(feats, pow10(t))
		embs = append(embs, pow10(t*1.05)) // embeddings grow slightly faster
	}
	fmt.Fprint(w, stats.RenderSeries("normalized growth (features, embedding capacity)",
		stats.Series{Label: "features", X: x, Y: feats},
		stats.Series{Label: "embeddings", X: x, Y: embs},
	))
	g := (embs[len(embs)-1] / embs[0])
	fmt.Fprintf(w, "growth over 3 years: features %.1fx, embeddings %.1fx (paper: ~10x each)\n",
		feats[len(feats)-1]/feats[0], g)
	return nil
}

func pow10(t float64) float64 { return math.Pow(10, t) }

// Fig4 reproduces the operator compute attribution of the three models
// (singular, serial requests, mean across requests): the paper's key
// observations are that dense operators dominate and sparse operators
// contribute ≈9.7%/9.6%/3.1% for DRM1/DRM2/DRM3 despite holding >97% of
// capacity.
func (r *Runner) Fig4(w io.Writer) error {
	writeHeader(w, "Fig. 4 — Operator compute attribution (singular, normalized)")
	group := stats.NewStackGroup("share of operator time by kind")
	for _, name := range model.Names() {
		cfg := model.ByName(name)
		res, err := r.Run(name, sharding.Singular(&cfg), runMode{})
		if err != nil {
			return err
		}
		st := stats.NewStack(name)
		var total time.Duration
		for _, d := range res.kindOpTime {
			total += d
		}
		kinds := make([]string, 0, len(res.kindOpTime))
		for k := range res.kindOpTime {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			st.Set(k, float64(res.kindOpTime[k])/float64(total))
		}
		group.Append(st)
		fmt.Fprintf(w, "%s: sparse operators %.1f%% of operator time (paper: %.1f%%)\n",
			name, 100*st.Get("Sparse"), map[string]float64{"DRM1": 9.7, "DRM2": 9.6, "DRM3": 3.1}[name])
	}
	fmt.Fprint(w, group.Render())
	return nil
}

// Fig5 renders the embedding-table size distributions: DRM1/DRM2 show a
// long tail; DRM3 is dominated by a single large table.
func (r *Runner) Fig5(w io.Writer) error {
	writeHeader(w, "Fig. 5 — Embedding table size distribution")
	for _, name := range model.Names() {
		cfg := model.ByName(name)
		var sizes []float64
		var largest, total int64
		for _, t := range cfg.Tables {
			b := t.Bytes()
			sizes = append(sizes, float64(b)/1024) // KiB
			if b > largest {
				largest = b
			}
			total += b
		}
		fmt.Fprintf(w, "\n%s: %d tables, %.1f MiB total, largest %.1f MiB (%.1f%% of capacity)\n",
			name, len(cfg.Tables), float64(total)/(1<<20), float64(largest)/(1<<20),
			100*float64(largest)/float64(total))
		// Twelve log-spaced buckets from 1 KiB to just past the largest
		// table: the sizes span four orders of magnitude.
		const buckets = 12
		top := math.Log(float64(largest) / 1024 * 1.01)
		edge := func(i int) float64 { return math.Exp(float64(i) / buckets * top) }
		var counts [buckets]int
		for _, kib := range sizes {
			first := sort.Search(buckets+1, func(i int) bool { return edge(i) > kib })
			counts[min(max(first-1, 0), buckets-1)]++
		}
		for i, c := range counts {
			fmt.Fprintf(w, "[%10.3g, %10.3g) %6d %s\n", edge(i), edge(i+1), c, strings.Repeat("#", c*40/slices.Max(counts[:])))
		}
	}
	return nil
}

// Table2 reproduces the sharding-results table for DRM1: per-shard
// capacity, table count, and estimated pooling factor under every
// configuration, plus the balance statistics Section V-A quotes.
func (r *Runner) Table2(w io.Writer) error {
	writeHeader(w, "Table II — Sharding results for DRM1")
	cfg := model.ByName("DRM1")
	pooling := r.Pooling("DRM1")
	plans, err := r.Plans("DRM1")
	if err != nil {
		return err
	}
	fmt.Fprint(w, sharding.Report(&cfg, plans, pooling))
	for _, p := range plans {
		if !p.IsDistributed() || p.NumShards < 2 {
			continue
		}
		st := sharding.Balance(&cfg, p, pooling)
		fmt.Fprintf(w, "%-22s capacity spread %.2fx, pooling spread %.2fx\n",
			p.Name(), st.CapacitySpread, st.PoolingSpread)
	}
	fmt.Fprintln(w, "\npaper: load-balanced capacities vary up to 50%; capacity-balanced pooling varies up to 4.7x;")
	fmt.Fprintln(w, "NSBP-2 puts each net on its own shard with net2 holding ~4.75x net1's bytes at ~6% of its work")
	return nil
}
