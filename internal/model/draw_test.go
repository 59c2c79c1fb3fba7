package model

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/embedding"
)

// sameBits fails unless two float slices hold the same bits.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s value %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestBuildIgnoresWorkerCount: a model built on one goroutine and on four
// holds the same bits in every table and every dense parameter, and so
// does a row-part drawn on each. The tables span one to several fill
// chunks, most with a partial last one.
func TestBuildIgnoresWorkerCount(t *testing.T) {
	cfg := DRM2()
	cfg.Tables = cfg.Tables[:48] // 40 of net1's, 8 of net2's
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 1 + i*2749%30000
	}
	const big = 43 // 28 208 rows of 16: its part 1 of 3 spans three chunks
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, onePart := Build(cfg), cfg.DrawPart(big, 3, 1)
	runtime.GOMAXPROCS(4)
	four, fourPart := Build(cfg), cfg.DrawPart(big, 3, 1)
	for id := range cfg.Tables {
		sameBits(t, cfg.Tables[id].Name, four.Tables[id].(*embedding.Dense).Data, one.Tables[id].(*embedding.Dense).Data)
	}
	sameBits(t, "part 1 of 3", fourPart.Data, onePart.Data)
	for n := range cfg.Nets {
		a, b := one.NetParams[n], four.NetParams[n]
		for l := range a.Bottom {
			sameBits(t, "bottom W", b.Bottom[l].W.Data, a.Bottom[l].W.Data)
			sameBits(t, "bottom B", b.Bottom[l].B, a.Bottom[l].B)
		}
		sameBits(t, "proj W", b.Proj.W.Data, a.Proj.W.Data)
		for l := range a.Top {
			sameBits(t, "top W", b.Top[l].W.Data, a.Top[l].W.Data)
		}
	}
}

// TestTableDrawIgnoresOtherTables: a DRM1 table holds the values it holds
// when drawn alone from (model seed, table ID), and when the tables before
// it change shape and those after it are not built.
func TestTableDrawIgnoresOtherTables(t *testing.T) {
	cfg := DRM1()
	m := Build(cfg)
	last := len(cfg.Tables) - 1
	for _, id := range []int{0, 1, 100, last} {
		ts := cfg.Tables[id]
		alone := embedding.NewDenseRandom(cfg.Seed, ts.ID, ts.Rows, ts.Dim, tableScale)
		sameBits(t, ts.Name+" in DRM1 against alone", m.Tables[id].(*embedding.Dense).Data, alone.Data)
	}
	prefix := cfg
	prefix.Tables = append([]TableSpec(nil), cfg.Tables[:101]...)
	for i := range prefix.Tables[:100] {
		prefix.Tables[i].Rows = 1 + prefix.Tables[i].Rows/3
	}
	sameBits(t, "t100 after reshaped tables", Build(prefix).Tables[100].(*embedding.Dense).Data, m.Tables[100].(*embedding.Dense).Data)
	runtime.KeepAlive(m)
}

// TestBuildServedDrawsOnlyWhatItIsGiven: BuildServed draws every table
// with the bits Build gives it, or leaves them all nil; it draws Build's
// dense nets only when asked.
func TestBuildServedDrawsOnlyWhatItIsGiven(t *testing.T) {
	cfg := DRM2()
	full := Build(cfg)
	tables := BuildServed(cfg, true, false)
	for id, tab := range tables.Tables {
		sameBits(t, cfg.Tables[id].Name, tab.(*embedding.Dense).Data, full.Tables[id].(*embedding.Dense).Data)
	}
	if got := tables.SparseTableBytes(); got != cfg.SparseBytes() || tables.NetParams != nil {
		t.Errorf("tables only: %d table bytes and %d nets, want %d and none", got, len(tables.NetParams), cfg.SparseBytes())
	}
	nets := BuildServed(cfg, false, true)
	for n := range cfg.Nets {
		last := len(cfg.Nets[n].TopMLP) - 1
		sameBits(t, "bottom W", nets.NetParams[n].Bottom[0].W.Data, full.NetParams[n].Bottom[0].W.Data)
		sameBits(t, "proj W", nets.NetParams[n].Proj.W.Data, full.NetParams[n].Proj.W.Data)
		sameBits(t, "last top B", nets.NetParams[n].Top[last].B, full.NetParams[n].Top[last].B)
	}
	if nets.DenseBytes() != full.DenseBytes() || slices.ContainsFunc(nets.Tables, func(tab embedding.Table) bool { return tab != nil }) {
		t.Errorf("dense only: %d dense and %d table bytes, want %d and 0", nets.DenseBytes(), nets.SparseTableBytes(), full.DenseBytes())
	}
	runtime.KeepAlive(full)
}
