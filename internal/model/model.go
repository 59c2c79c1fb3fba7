// Package model defines the recommendation-model intermediate
// representation used throughout the system — embedding-table specs, net
// specs, and built models with materialized parameters — plus synthetic
// builders for the paper's three workloads DRM1, DRM2, and DRM3.
//
// The paper's models are production models scaled down to fit a 256 GB
// server ("Embedding tables larger than a given threshold were scaled
// down by a proportional factor", Section V-A). We scale a further ~4096×
// so experiments run on laptop-class machines, preserving the attributes
// the paper identifies as governing distributed-inference behavior:
//
//   - table count and size distribution (DRM1: 257 tables, long tail,
//     largest 3.6/194 of capacity; DRM2: 133 tables, long tail; DRM3: 39
//     tables with one table holding ~89% of capacity),
//   - net structure (DRM1/DRM2: two sequential nets; DRM3: one net),
//   - pooling-factor distribution (DRM1/DRM2 net1: high pooling on small
//     tables; net2: low pooling on large tables; DRM3's dominating table
//     has pooling factor 1),
//   - the sparse/dense operator compute split (sparse ≈ 10%/10%/3% of
//     operator time for DRM1/2/3, Fig. 4) and the >97% share of capacity
//     held by embedding tables.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// TableSpec describes one embedding table.
type TableSpec struct {
	// ID is the table's stable index across the model.
	ID int
	// Name is a human-readable identifier ("t042").
	Name string
	// Net names the ML net whose sparse features use this table.
	Net string
	// Rows and Dim give the table shape.
	Rows, Dim int
	// PoolingFactor is the mean number of lookups per inference item for
	// this table's feature (the quantity the load-balanced strategy
	// budgets and Table II reports).
	PoolingFactor float64
}

// Bytes returns the uncompressed fp32 size of the table.
func (t TableSpec) Bytes() int64 { return int64(t.Rows) * int64(t.Dim) * 4 }

// NetSpec describes one net's dense architecture.
type NetSpec struct {
	// Name identifies the net ("net1", "net2").
	Name string
	// DenseDim is the width of the net's dense input features.
	DenseDim int
	// BottomMLP lists hidden widths of the dense-feature MLP.
	BottomMLP []int
	// EmbProj is the output width of the FC layer that consumes the
	// concatenation of all pooled embeddings.
	EmbProj int
	// TopMLP lists hidden widths of the post-interaction MLP.
	TopMLP []int
	// InteractFeatures is how many leading tables of this net join the
	// pairwise-dot feature interaction.
	InteractFeatures int
}

// Config is a complete model description, sufficient to deterministically
// materialize parameters and generate workload.
type Config struct {
	// Name is the model name ("DRM1").
	Name string
	// Nets execute sequentially; each net's output feeds the next.
	Nets []NetSpec
	// Tables lists every embedding table with its owning net.
	Tables []TableSpec
	// MeanItems is the mean ranking-request size (items to score).
	MeanItems int
	// ItemsSigma shapes the lognormal request-size tail.
	ItemsSigma float64
	// DefaultBatch is the production default batch size (items per
	// execution batch); a request of R items runs ⌈R/DefaultBatch⌉
	// batches in parallel (Section VI-F).
	DefaultBatch int
	// Seed makes parameter materialization and workload deterministic.
	Seed int64
}

// NetTables returns the specs of tables owned by the named net, in ID
// order.
func (c *Config) NetTables(net string) []TableSpec {
	var out []TableSpec
	for _, t := range c.Tables {
		if t.Net == net {
			out = append(out, t)
		}
	}
	return out
}

// SparseBytes sums all embedding-table bytes.
func (c *Config) SparseBytes() int64 {
	var n int64
	for _, t := range c.Tables {
		n += t.Bytes()
	}
	return n
}

// TotalPoolingPerItem sums mean pooling factors across tables — the
// expected embedding lookups per inference item.
func (c *Config) TotalPoolingPerItem() float64 {
	var p float64
	for _, t := range c.Tables {
		p += t.PoolingFactor
	}
	return p
}

// Model is a Config with materialized parameters.
type Model struct {
	Config
	// Tables holds one backend per TableSpec, indexed by TableSpec.ID.
	Tables []embedding.Table
	// NetParams holds per-net dense parameters, parallel to Config.Nets.
	NetParams []NetParams
}

// NetParams are the dense parameters of one net.
type NetParams struct {
	// Bottom holds the bottom-MLP weight/bias pairs.
	Bottom []FCParams
	// Proj consumes the pooled-embedding concatenation.
	Proj FCParams
	// Top holds the post-interaction MLP parameters; the final layer is
	// width 1 for the last net (the click-probability head).
	Top []FCParams
}

// FCParams is one fully-connected layer's parameters.
type FCParams struct {
	W *tensor.Matrix
	B []float32
}

// DenseBytes sums dense (non-embedding) parameter bytes.
func (m *Model) DenseBytes() int64 {
	var n int64
	for _, np := range m.NetParams {
		for _, fc := range np.Bottom {
			n += fc.W.Bytes() + int64(len(fc.B))*4
		}
		n += np.Proj.W.Bytes() + int64(len(np.Proj.B))*4
		for _, fc := range np.Top {
			n += fc.W.Bytes() + int64(len(fc.B))*4
		}
	}
	return n
}

// TotalBytes is the full model footprint.
func (m *Model) TotalBytes() int64 { return m.DenseBytes() + m.SparseTableBytes() }

// SparseTableBytes sums the materialized table backends (which may be
// quantized, unlike Config.SparseBytes which reports fp32 spec size).
func (m *Model) SparseTableBytes() int64 {
	var n int64
	for _, t := range m.Tables {
		if t != nil { // a table BuildServed did not draw
			n += t.Bytes()
		}
	}
	return n
}

// tableScale bounds every table value: each is drawn from
// [-tableScale, tableScale).
const tableScale = 0.1

// TableValues writes values [off, off+len(dst)) of table's row-major
// values into dst: the values every build of the table holds
// (embedding.DrawRandom).
func (c *Config) TableValues(dst []float32, table, off int) {
	embedding.DrawRandom(dst, c.Seed, table, off, tableScale)
}

// DrawPart draws part p of n of a table (n = 1: the whole table) with the
// values every build of it holds (embedding.NewDenseRandomPart).
func (c *Config) DrawPart(table, n, p int) *embedding.Dense {
	ts := c.Tables[table]
	return embedding.NewDenseRandomPart(c.Seed, table, ts.Rows, ts.Dim, n, p, tableScale)
}

// Build materializes a model from a config with deterministic parameters:
// BuildServed of every table and the dense nets.
func Build(cfg Config) *Model { return BuildServed(cfg, true, true) }

// BuildServed materializes every table when tables is set, and the dense
// nets when dense is; otherwise Tables holds nils, or NetParams is nil. A
// value is a pure function of (cfg.Seed, table, index), and the nets draw
// from a stream of their own, so a role draws any part alone (DrawPart).
func BuildServed(cfg Config, tables, dense bool) *Model {
	m := &Model{Config: cfg}
	m.Tables = make([]embedding.Table, len(cfg.Tables))
	for i, ts := range cfg.Tables {
		if ts.ID != i {
			panic(fmt.Sprintf("model: table %d has ID %d; IDs must be dense and ordered", i, ts.ID))
		}
		if tables {
			m.Tables[i] = cfg.DrawPart(i, 1, 0)
		}
	}
	if !dense {
		return m
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	prevOut := 0
	for _, ns := range cfg.Nets {
		inDim := ns.DenseDim + prevOut // later nets consume the prior net's output
		var np NetParams
		w := inDim
		for _, h := range ns.BottomMLP {
			np.Bottom = append(np.Bottom, newFC(rng, w, h))
			w = h
		}
		bottomOut := w
		embCols := 0
		for _, ts := range cfg.NetTables(ns.Name) {
			embCols += ts.Dim
		}
		np.Proj = newFC(rng, embCols, ns.EmbProj)
		// Top input: bottom output + proj + pairwise dots.
		nInter := ns.InteractFeatures
		topIn := bottomOut + ns.EmbProj + nInter*(nInter-1)/2
		w = topIn
		for _, h := range ns.TopMLP {
			np.Top = append(np.Top, newFC(rng, w, h))
			w = h
		}
		m.NetParams = append(m.NetParams, np)
		prevOut = w
	}
	return m
}

func newFC(rng *rand.Rand, in, out int) FCParams {
	w := tensor.New(in, out)
	scale := float32(1 / math.Sqrt(float64(in)))
	for i := range w.Data {
		w.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	b := make([]float32, out)
	for i := range b {
		b[i] = (rng.Float32()*2 - 1) * 0.01
	}
	return FCParams{W: w, B: b}
}

// Compress returns a copy of the model with all embedding tables
// quantized (8-bit, or 4-bit for tables at or above bigTableBytes) after
// magnitude pruning, reproducing the production compression recipe of
// Section VII-D. Dense parameters are left uncompressed, as in the paper.
func (m *Model) Compress(bigTableBytes int64, pruneThreshold float32) *Model {
	out := &Model{Config: m.Config, NetParams: m.NetParams}
	out.Tables = make([]embedding.Table, len(m.Tables))
	for i, t := range m.Tables {
		dense, ok := t.(*embedding.Dense)
		if !ok {
			out.Tables[i] = t // already compressed
			continue
		}
		clone := &embedding.Dense{RowsN: dense.RowsN, DimN: dense.DimN, Data: append([]float32(nil), dense.Data...)}
		quant.PruneMagnitude(clone.Data, pruneThreshold)
		bits := quant.Bits8
		if m.Config.Tables[i].Bytes() >= bigTableBytes {
			bits = quant.Bits4
		}
		out.Tables[i] = clone.Quantize(bits)
	}
	return out
}
