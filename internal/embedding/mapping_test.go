package embedding_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/embedding"
	"repro/internal/mmapfile"
)

// skipUnlessMapped skips where an anonymous region falls back to the
// heap: there is no region to count.
func skipUnlessMapped(t *testing.T) {
	t.Helper()
	probe := mmapfile.Anon(os.Getpagesize())
	defer probe.Close()
	if !probe.Mapped() {
		t.Skip("anonymous regions fall back to the heap here")
	}
}

// settledMappings collects until the live-region count stops moving —
// every finalizer of garbage made before the call has run — and returns
// it.
func settledMappings() int64 {
	n := embedding.LiveMappings()
	for {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		m := embedding.LiveMappings()
		if m == n {
			return n
		}
		n = m
	}
}

// TestDroppedTableReleasesItsMapping: a table of a page or more owns one
// anonymous region, a smaller one none; a copy of the table's struct
// keeps the region mapped after the original is dropped; once neither is
// reachable a collection unmaps it.
func TestDroppedTableReleasesItsMapping(t *testing.T) {
	skipUnlessMapped(t)
	base := settledMappings()
	kept := func() embedding.Dense { // the table is dropped here, a copy of its struct kept
		tab := embedding.NewDenseRandom(3, 0, 1<<14, 16, 0.1) // 1 MiB
		if got := embedding.LiveMappings(); got != base+1 {
			t.Fatalf("a 1 MiB table left %d live regions, want %d", got, base+1)
		}
		small := embedding.NewDenseRandom(3, 1, 16, 4, 0.1)
		if got := embedding.LiveMappings(); got != base+1 {
			t.Fatalf("a 256-byte table mapped a region: %d live, want %d", got, base+1)
		}
		runtime.KeepAlive(small)
		return *tab
	}()
	want := math.Float32bits(kept.Data[len(kept.Data)-1])
	if got := settledMappings(); got != base+1 {
		t.Fatalf("with a copy of the table alive, %d regions are live, want %d", got, base+1)
	}
	if got := math.Float32bits(kept.Data[len(kept.Data)-1]); got != want {
		t.Fatalf("the copy's last value changed: %#x, want %#x", got, want)
	}
	runtime.KeepAlive(&kept)

	deadline := time.Now().Add(5 * time.Second)
	for embedding.LiveMappings() != base {
		if time.Now().After(deadline) {
			t.Fatalf("a dropped table's region is still mapped: %d live, want %d", embedding.LiveMappings(), base)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMappedTableMatchesHeapTable: NewDenseRandom draws the same values
// into a mapped table, on every core, as one DrawRandom call draws into
// heap rows, and the table serves them through every read path.
func TestMappedTableMatchesHeapTable(t *testing.T) {
	const rows, dim = 1 << 10, 8
	got := embedding.NewDenseRandom(9, 2, rows, dim, 0.5)
	want := embedding.NewDense(rows, dim)
	embedding.DrawRandom(want.Data, 9, 2, 0, 0.5)
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("value %d = %v, heap reference %v", i, got.Data[i], want.Data[i])
		}
	}
	row := make([]float32, dim)
	got.DecodeRow(row, rows-1)
	acc := make([]float32, dim)
	got.AccumulateRow(acc, rows-1)
	last := want.Row(rows - 1)
	for c := range row {
		if row[c] != last[c] || acc[c] != row[c] {
			t.Fatalf("last row col %d: decoded %v, accumulated %v, want %v", c, row[c], acc[c], last[c])
		}
	}
	if string(got.AppendRowRange(nil, 0, rows)) != string(want.AppendRowRange(nil, 0, rows)) {
		t.Fatal("row-range bytes differ from the heap table's")
	}
}

// cutPart is the reference row-part: part p of n cut out of the whole
// table, each row copied to its local row under RowPart, on the heap; a
// part with no rows keeps one zero row.
func cutPart(src *embedding.Dense, n, p int) *embedding.Dense {
	local := embedding.NewDense(max(embedding.PartRowCount(src.RowsN, n, p), 1), src.DimN)
	for r := p; r < src.RowsN; r += n {
		_, l := embedding.RowPart(r, n)
		copy(local.Row(l), src.Row(r))
	}
	return local
}

// samePart fails unless a drawn part holds the reference cut's shape and
// bits.
func samePart(t *testing.T, what string, got, want *embedding.Dense) {
	t.Helper()
	if got.RowsN != want.RowsN || got.DimN != want.DimN || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %dx%d holding %d values, cut %dx%d holding %d", what, got.RowsN, got.DimN, len(got.Data), want.RowsN, want.DimN, len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s value %d = %v, cut %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestDrawnPartEqualsCut: NewDenseRandomPart draws every part of a table
// bit for bit as the reference cuts it out of the whole draw — a part
// past the last row as one zero row — and a part of a page or more lives
// in an anonymous region of its own, a smaller one on the heap.
func TestDrawnPartEqualsCut(t *testing.T) {
	const seed, table, dim, scale = 4, 7, 3, 0.1
	for rows := 1; rows <= 20; rows++ {
		whole := embedding.NewDenseRandom(seed, table, rows, dim, scale)
		for n := 1; n <= 6; n++ {
			for p := range n {
				got := embedding.NewDenseRandomPart(seed, table, rows, dim, n, p, scale)
				samePart(t, fmt.Sprintf("rows %d part %d of %d", rows, p, n), got, cutPart(whole, n, p))
			}
		}
	}

	skipUnlessMapped(t)
	const rows, wide, n = 3<<10 + 1, 8, 3 // parts of 1025, 1024 and 1024 rows
	whole := embedding.NewDenseRandom(seed, table, rows, wide, scale)
	base := settledMappings()
	parts := make([]*embedding.Dense, n) // alive to the end: no finalizer moves the count
	for p := range n {
		parts[p] = embedding.NewDenseRandomPart(seed, table, rows, wide, n, p, scale)
		if got := embedding.LiveMappings(); got != base+int64(p)+1 {
			t.Fatalf("part %d: %d live regions, want %d", p, got, base+int64(p)+1)
		}
		samePart(t, fmt.Sprintf("mapped part %d", p), parts[p], cutPart(whole, n, p))
	}
	mapped := embedding.LiveMappings()
	small := embedding.NewDenseRandomPart(seed, table, rows, wide, rows, 0, scale) // one row
	if got := embedding.LiveMappings(); got != mapped {
		t.Fatalf("a one-row part mapped a region: %d live, want %d", got, mapped)
	}
	runtime.KeepAlive(small)
	runtime.KeepAlive(parts)
	runtime.KeepAlive(whole)
}
