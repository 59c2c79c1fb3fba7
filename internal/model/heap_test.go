package model

import (
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/embedding"
	"repro/internal/mmapfile"
)

// TestBuildKeepsTablesOffTheHeap: a model whose tables each exceed a page
// raises the live heap by its dense parameters and bookkeeping — under
// 1 MiB more — not by its tables, and every table holds the rows its
// keyed draw puts in heap storage, bit for bit.
func TestBuildKeepsTablesOffTheHeap(t *testing.T) {
	probe := mmapfile.Anon(os.Getpagesize())
	mapped := probe.Mapped()
	probe.Close()
	if !mapped {
		t.Skip("anonymous regions fall back to the heap here")
	}
	cfg := DRM2()
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 4096 // ≥ 128 KiB a table: a page on any host
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := Build(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap +%.1f MiB for %.1f MiB of tables and %.1f MiB of dense parameters",
		float64(grew)/(1<<20), float64(cfg.SparseBytes())/(1<<20), float64(m.DenseBytes())/(1<<20))
	if bound := m.DenseBytes() + 1<<20; grew >= bound {
		t.Errorf("Build raised the live heap by %d bytes, want under %d (dense parameters + 1 MiB)", grew, bound)
	}

	// The heap reference is each table's keyed draw into heap rows.
	for id, ts := range cfg.Tables {
		ref := embedding.NewDense(ts.Rows, ts.Dim)
		cfg.TableValues(ref.Data, ts.ID, 0)
		got := m.Tables[id].(*embedding.Dense)
		for i := range ref.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(ref.Data[i]) {
				t.Fatalf("table %d value %d = %v, heap reference %v", id, i, got.Data[i], ref.Data[i])
			}
		}
	}
	runtime.KeepAlive(m)
}
