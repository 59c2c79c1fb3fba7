// Package workload generates synthetic ranking requests standing in for
// the paper's "database of de-identified requests ... sampled evenly
// across a five-day time period" (Section V-B).
//
// A ranking request carries R candidate items; for each item, every sparse
// feature contributes a bag of raw IDs whose size is drawn from that
// table's pooling-factor distribution, and every net gets a dense feature
// vector per item. Request sizes are lognormal so the tail requests that
// dominate P99 (Section VI-B4: "very large inference request sizes") are
// present. Per-request features (DRM3's dominating user table) contribute
// one shared ID replicated across items. All draws are seeded, so a given
// (model, seed) pair replays the identical request stream — the analogue
// of replaying a fixed production trace.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Request is one ranking request.
type Request struct {
	// ID is the request's sequence number (also used as trace id).
	ID uint64
	// Items is the number of candidate items to rank.
	Items int
	// Dense maps net name to an Items×DenseDim feature matrix.
	Dense map[string]*tensor.Matrix
	// Bags maps table ID to per-item bags of *raw* sparse feature IDs
	// (hashing into table buckets happens inside the model, Fig. 4's
	// "Hash" operators).
	Bags map[int][]embedding.Bag
	// ArrivalOffset is the request's offset within the replay timeline,
	// used by the open-loop QPS replayer.
	ArrivalOffset float64
}

// TotalLookups counts embedding lookups across all tables — the
// request's pooling work.
func (r *Request) TotalLookups() int {
	n := 0
	for _, bags := range r.Bags {
		n += embedding.TotalLookups(bags)
	}
	return n
}

// Generator produces a deterministic request stream for a model config.
type Generator struct {
	cfg model.Config
	rng *rand.Rand
	seq uint64
	// diurnal enables sinusoidal request-size modulation across the
	// stream, a light-weight stand-in for the five-day diurnal sampling.
	diurnal bool
	// zipf, when non-nil, draws raw sparse IDs from a Zipf distribution
	// instead of uniform — the skewed row popularity of production sparse
	// features that makes hot-row caching pay.
	zipf *rand.Zipf
}

// NewGenerator returns a generator seeded independently of the model's
// parameter seed so workload and parameters are uncorrelated.
func NewGenerator(cfg model.Config, seed int64) *Generator {
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// EnableDiurnal turns on request-size modulation over the stream.
func (g *Generator) EnableDiurnal() { g.diurnal = true }

// EnableRowSkew draws raw sparse IDs Zipf(s)-distributed over the ID
// space (s > 1; larger is more skewed) instead of uniform. Hot raw IDs
// hash to a stable set of hot table rows, so a fixed seed still replays
// an identical stream — only the row-popularity profile changes. It
// panics for s ≤ 1: rand.NewZipf would return nil and the stream would
// silently stay uniform while claiming skew.
func (g *Generator) EnableRowSkew(s float64) {
	z := rand.NewZipf(g.rng, s, 1, 1<<30-1)
	if z == nil {
		panic(fmt.Sprintf("workload: row skew s=%g must be > 1", s))
	}
	g.zipf = z
}

// ApplySkew returns a copy of the stream with per-table pooling scaled
// by the given factors — injected hot-feature drift on a *fixed* trace.
// A factor f rewrites each bag to round(f·len) indices by cycling the
// original list (f > 1 repeats hot rows, f < 1 keeps a prefix), so the
// transform is deterministic and phase-to-phase comparisons replay the
// identical dense features and item counts. Dense matrices are shared
// with the source requests; bags are fresh slices.
func ApplySkew(reqs []*Request, skew map[int]float64) []*Request {
	out := make([]*Request, len(reqs))
	for i, req := range reqs {
		nr := &Request{
			ID: req.ID, Items: req.Items, Dense: req.Dense,
			Bags:          make(map[int][]embedding.Bag, len(req.Bags)),
			ArrivalOffset: req.ArrivalOffset,
		}
		for tid, bags := range req.Bags {
			f, ok := skew[tid]
			if !ok {
				nr.Bags[tid] = bags
				continue
			}
			nb := make([]embedding.Bag, len(bags))
			for b, bag := range bags {
				n := len(bag.Indices)
				target := int(math.Round(float64(n) * f))
				if n == 0 || target == n {
					nb[b] = bag
					continue
				}
				idx := make([]int32, target)
				for j := range idx {
					idx[j] = bag.Indices[j%n]
				}
				nb[b].Indices = idx
			}
			nr.Bags[tid] = nb
		}
		out[i] = nr
	}
	return out
}

// Next generates the next request.
func (g *Generator) Next() *Request {
	g.seq++
	req := &Request{
		ID:    g.seq,
		Dense: make(map[string]*tensor.Matrix, len(g.cfg.Nets)),
		Bags:  make(map[int][]embedding.Bag, len(g.cfg.Tables)),
	}
	req.Items = g.drawItems()

	for _, ns := range g.cfg.Nets {
		m := tensor.New(req.Items, ns.DenseDim)
		for i := range m.Data {
			m.Data[i] = g.rng.Float32()*2 - 1
		}
		req.Dense[ns.Name] = m
	}
	for _, ts := range g.cfg.Tables {
		req.Bags[ts.ID] = g.drawBags(ts, req.Items)
	}
	return req
}

// drawItems samples the ranking-request size, lognormal around MeanItems
// with optional diurnal modulation.
func (g *Generator) drawItems() int {
	mean := float64(g.cfg.MeanItems)
	if g.diurnal {
		// One "day" per 1000 requests; ±30% swing.
		phase := 2 * math.Pi * float64(g.seq%1000) / 1000
		mean *= 1 + 0.3*math.Sin(phase)
	}
	sigma := g.cfg.ItemsSigma
	// Lognormal with median = mean (so the tail stretches upward).
	items := int(math.Round(mean * math.Exp(g.rng.NormFloat64()*sigma)))
	if items < 1 {
		items = 1
	}
	return items
}

// drawBags samples one bag of raw sparse IDs per item for table ts.
func (g *Generator) drawBags(ts model.TableSpec, items int) []embedding.Bag {
	bags := make([]embedding.Bag, items)
	if model.IsPerRequestTable(g.cfg.Name, ts.ID) {
		// Per-request feature: one shared raw ID replicated per item,
		// exactly one lookup's worth of pooling per item.
		id := g.drawID()
		for i := range bags {
			bags[i].Indices = []int32{id}
		}
		return bags
	}
	for i := range bags {
		n := g.poisson(ts.PoolingFactor)
		if n == 0 {
			continue
		}
		idx := make([]int32, n)
		for j := range idx {
			idx[j] = g.drawID()
		}
		bags[i].Indices = idx
	}
	return bags
}

// drawID samples one raw sparse ID: uniform by default, Zipf-skewed when
// EnableRowSkew is on.
func (g *Generator) drawID() int32 {
	if g.zipf != nil {
		return int32(g.zipf.Uint64())
	}
	return int32(g.rng.Intn(1 << 30))
}

// poisson draws from Poisson(mean) — Knuth's method for small means, a
// normal approximation above 30 where Knuth's loop gets slow.
func (g *Generator) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(mean + math.Sqrt(mean)*g.rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// GenerateBatch produces n requests.
func (g *Generator) GenerateBatch(n int) []*Request {
	out := make([]*Request, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// EstimatePooling samples n requests and returns the observed mean number
// of lookups per table *per request* — the paper's pooling-factor
// estimator ("estimated by sampling 1000 requests from the evaluation
// dataset and observing the number of lookups per table", Section III-B2).
// The generator is consumed; use a dedicated instance.
func EstimatePooling(g *Generator, n int) map[int]float64 {
	counts := make(map[int]float64)
	for i := 0; i < n; i++ {
		req := g.Next()
		for tid, bags := range req.Bags {
			counts[tid] += float64(embedding.TotalLookups(bags))
		}
	}
	for tid := range counts {
		counts[tid] /= float64(n)
	}
	return counts
}

// DeploymentPooling is the pooling estimate every process of a deployment
// derives its sharding plan from (load-bal packs by it): the exported
// shard files, the sparse servers and the main shard agree on table
// placement only because each samples the same 200 requests of the same
// generator.
func DeploymentPooling(cfg model.Config) map[int]float64 {
	return EstimatePooling(NewGenerator(cfg, 991), 200)
}
