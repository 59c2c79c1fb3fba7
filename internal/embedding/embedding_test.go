package embedding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quant"
)

func TestDenseBasics(t *testing.T) {
	tab := NewDense(4, 3)
	if tab.NumRows() != 4 || tab.Dim() != 3 || tab.Bytes() != 48 {
		t.Fatalf("shape wrong: %+v", tab)
	}
	tab.Row(2)[1] = 5
	acc := make([]float32, 3)
	tab.AccumulateRow(acc, 2)
	if acc[1] != 5 {
		t.Errorf("AccumulateRow: %v", acc)
	}
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDense(0, 4)
}

func TestSLSKnown(t *testing.T) {
	tab := NewDense(3, 2)
	copy(tab.Data, []float32{1, 2, 10, 20, 100, 200})
	bags := []Bag{
		{Indices: []int32{0, 2}}, // rows 0+2 = {101, 202}
		{Indices: []int32{1}},    // row 1 = {10, 20}
		{},                       // empty bag = zeros
	}
	out := make([]float32, 6)
	SLS(out, tab, bags)
	want := []float32{101, 202, 10, 20, 0, 0}
	for i, w := range want {
		if out[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out[i], w)
		}
	}
}

func TestSLSZeroesOutput(t *testing.T) {
	tab := NewDense(1, 2)
	out := []float32{9, 9}
	SLS(out, tab, []Bag{{}})
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("SLS must zero output first: %v", out)
	}
}

func TestSLSPanicsOnBadIndex(t *testing.T) {
	tab := NewDense(2, 2)
	out := make([]float32, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	SLS(out, tab, []Bag{{Indices: []int32{5}}})
}

func TestSLSPanicsOnBadOutLen(t *testing.T) {
	tab := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad out length")
		}
	}()
	SLS(make([]float32, 3), tab, []Bag{{}})
}

func TestSLSMean(t *testing.T) {
	tab := NewDense(2, 2)
	copy(tab.Data, []float32{2, 4, 6, 8})
	out := make([]float32, 2)
	SLSMean(out, tab, []Bag{{Indices: []int32{0, 1}}})
	if out[0] != 4 || out[1] != 6 {
		t.Errorf("SLSMean = %v, want [4 6]", out)
	}
	// Single-index and empty bags are unscaled.
	SLSMean(out, tab, []Bag{{Indices: []int32{1}}})
	if out[0] != 6 || out[1] != 8 {
		t.Errorf("SLSMean single = %v", out)
	}
}

func TestTotalLookups(t *testing.T) {
	bags := []Bag{{Indices: []int32{1, 2}}, {}, {Indices: []int32{3}}}
	if got := TotalLookups(bags); got != 3 {
		t.Errorf("TotalLookups = %d, want 3", got)
	}
}

// TestBagListRoundTrip: Flatten and Bags are inverses (an empty bag comes
// back with nil indices, no bag can grow into its neighbour), Present
// counts the non-empty bags, and Bags refuses lengths that do not add up
// to the indices.
func TestBagListRoundTrip(t *testing.T) {
	bags := []Bag{{Indices: []int32{1, 2}}, {}, {Indices: []int32{3}}, {}}
	l := Flatten(bags)
	if len(l.Lens) != 4 || len(l.Indices) != 3 || l.Present() != 2 {
		t.Fatalf("Flatten = %+v, %d present", l, l.Present())
	}
	back := l.Bags()
	for b := range bags {
		if len(back[b].Indices) != len(bags[b].Indices) || cap(back[b].Indices) != len(back[b].Indices) || (len(bags[b].Indices) == 0) != (back[b].Indices == nil) {
			t.Errorf("bag %d came back as %v (cap %d), want %v", b, back[b].Indices, cap(back[b].Indices), bags[b].Indices)
		}
		for i := range back[b].Indices {
			if back[b].Indices[i] != bags[b].Indices[i] {
				t.Errorf("bag %d index %d = %d, want %d", b, i, back[b].Indices[i], bags[b].Indices[i])
			}
		}
	}
	for name, bad := range map[string]BagList{
		"short":    {Lens: []int32{2, 2}, Indices: []int32{1, 2, 3}},
		"over":     {Lens: []int32{1}, Indices: []int32{1, 2}},
		"negative": {Lens: []int32{-1, 2}, Indices: []int32{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			bad.Bags()
		}()
	}
}

func TestQuantizedTableMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := NewDenseRandom(rng, 50, 16, 1)
	qt := tab.Quantize(quant.Bits8)
	if qt.NumRows() != 50 || qt.Dim() != 16 {
		t.Fatalf("quantized shape wrong")
	}
	bags := []Bag{{Indices: []int32{0, 7, 31}}}
	dense := make([]float32, 16)
	quantized := make([]float32, 16)
	SLS(dense, tab, bags)
	SLS(quantized, qt, bags)
	for i := range dense {
		// 3 lookups × per-row bound (half step + fp16 header rounding).
		if diff := math.Abs(float64(dense[i] - quantized[i])); diff > 0.03 {
			t.Errorf("quantized SLS diverges at %d: %v vs %v", i, quantized[i], dense[i])
		}
	}
	if qt.Bytes() >= tab.Bytes() {
		t.Errorf("quantized table should be smaller: %d vs %d", qt.Bytes(), tab.Bytes())
	}
}

func TestPartitionRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := NewDenseRandomRows(rng, 17, 4) // odd row count exercises remainders
	parts := PartitionRows(src, 4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	for r := 0; r < src.NumRows(); r++ {
		p := parts[r%4]
		local := p.LocalRow(r)
		got := p.Local.Row(local)
		want := src.Row(r)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("row %d mismatch at col %d", r, c)
			}
		}
	}
}

func TestLocalRowPanicsOnWrongPart(t *testing.T) {
	src := NewDense(8, 2)
	parts := PartitionRows(src, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	parts[0].LocalRow(3) // 3 % 2 == 1, belongs to part 1
}

func TestPartitionPanicsOnBadParts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PartitionRows(NewDense(4, 2), 0)
}

func TestPartitionMorePartsThanRows(t *testing.T) {
	src := NewDense(2, 2)
	parts := PartitionRows(src, 5)
	for _, p := range parts {
		if p.Local.NumRows() < 1 {
			t.Errorf("part %d has no backing rows", p.Index)
		}
	}
}

// splitBags routes each bag's logical indices to per-part bags with local
// indices, preserving bag positions — the ID-splitting step the RPC
// operator performs on a partitioned table, in its plainest form.
func splitBags(bags []Bag, numParts int) [][]Bag {
	out := make([][]Bag, numParts)
	for p := range out {
		out[p] = make([]Bag, len(bags))
	}
	for b, bag := range bags {
		for _, idx := range bag.Indices {
			p := int(idx) % numParts
			out[p][b].Indices = append(out[p][b].Indices, idx/int32(numParts))
		}
	}
	return out
}

// TestShardedSLSEquivalence is the core invariant of row-sharding: SLS on
// the full table equals the sum of per-part SLS results routed through
// splitBags. This is what makes modulus partitioning transparent.
func TestShardedSLSEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewDenseRandom(rng, 64, 8, 1)
	bags := make([]Bag, 5)
	for b := range bags {
		n := rng.Intn(10)
		for i := 0; i < n; i++ {
			bags[b].Indices = append(bags[b].Indices, int32(rng.Intn(64)))
		}
	}
	full := make([]float32, len(bags)*8)
	SLS(full, src, bags)

	for _, numParts := range []int{1, 2, 3, 7} {
		parts := PartitionRows(src, numParts)
		split := splitBags(bags, numParts)
		partials := make([][]float32, numParts)
		for p := 0; p < numParts; p++ {
			partials[p] = make([]float32, len(bags)*8)
			SLS(partials[p], parts[p].Local, split[p])
		}
		merged := make([]float32, len(bags)*8)
		MergePartial(merged, partials)
		for i := range full {
			if diff := math.Abs(float64(full[i] - merged[i])); diff > 1e-4 {
				t.Fatalf("numParts=%d: sharded SLS diverges at %d: %v vs %v", numParts, i, merged[i], full[i])
			}
		}
	}
}

func TestShardedSLSEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 8 + rng.Intn(56)
		dim := 1 + rng.Intn(8)
		numParts := 1 + rng.Intn(6)
		src := NewDenseRandom(rng, rows, dim, 1)
		bags := make([]Bag, 1+rng.Intn(4))
		for b := range bags {
			for i, n := 0, rng.Intn(8); i < n; i++ {
				bags[b].Indices = append(bags[b].Indices, int32(rng.Intn(rows)))
			}
		}
		full := make([]float32, len(bags)*dim)
		SLS(full, src, bags)
		parts := PartitionRows(src, numParts)
		split := splitBags(bags, numParts)
		partials := make([][]float32, numParts)
		for p := range parts {
			partials[p] = make([]float32, len(bags)*dim)
			SLS(partials[p], parts[p].Local, split[p])
		}
		merged := make([]float32, len(bags)*dim)
		MergePartial(merged, partials)
		for i := range full {
			if math.Abs(float64(full[i]-merged[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMergePartialPanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MergePartial(make([]float32, 4), [][]float32{make([]float32, 3)})
}

// poolReference is Pool's contract in the plainest terms: per non-empty
// bag one row, AccumulateRow by AccumulateRow into zeros.
func poolReference(table Table, bags []Bag) []float32 {
	var out []float32
	for _, bag := range bags {
		if len(bag.Indices) == 0 {
			continue
		}
		acc := make([]float32, table.Dim())
		for _, idx := range bag.Indices {
			table.AccumulateRow(acc, int(idx))
		}
		out = append(out, acc...)
	}
	return out
}

// TestPoolPackedAndStrided: one call over several backends and widths —
// enough Dense bags to turn the prefetch chunks over several times —
// packs exactly the non-empty bags' rows, and the strided layout puts the
// same rows at their bags' positions with zeros for the empty ones,
// leaving the columns between entries alone.
func TestPoolPackedAndStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dense8 := NewDenseRandom(rng, 300, 8, 1)
	dense5 := NewDenseRandom(rng, 40, 5, 1)
	tables := []Table{dense8, dense5, dense8.Quantize(quant.Bits8), NewTiered(dense5.ToFP16(), 8)}
	const items = 120
	var packed, strided []PoolEntry
	var authored [][]Bag
	cols := 0
	for _, tab := range tables {
		cols += tab.Dim() + 1 // a spare column after every entry
	}
	matrix := make([]float32, items*cols)
	for i := range matrix {
		matrix[i] = -1
	}
	off := 0
	for _, tab := range tables {
		bags := make([]Bag, items)
		for b := range bags {
			for k := rng.Intn(4) * rng.Intn(3); k > 0; k-- {
				bags[b].Indices = append(bags[b].Indices, int32(rng.Intn(tab.NumRows())))
			}
		}
		l := Flatten(bags)
		authored = append(authored, bags)
		packed = append(packed, PoolEntry{Table: tab, Lens: l.Lens, Indices: l.Indices, Out: make([]float32, l.Present()*tab.Dim())})
		strided = append(strided, PoolEntry{Table: tab, Lens: l.Lens, Indices: l.Indices, Out: matrix[off:], Stride: cols})
		off += tab.Dim() + 1
	}
	Pool(packed)
	Pool(strided)
	off = 0
	for i, e := range packed {
		dim := e.Table.Dim()
		want := poolReference(e.Table, authored[i])
		if len(want) == 0 || len(want) == items*dim {
			t.Fatalf("fixture: entry %d has %d of %d bags non-empty", i, len(want)/dim, items)
		}
		for j := range want {
			if math.Float32bits(e.Out[j]) != math.Float32bits(want[j]) {
				t.Fatalf("entry %d: packed value %d = %v, want %v", i, j, e.Out[j], want[j])
			}
		}
		k := 0
		for b, bag := range authored[i] {
			row := matrix[b*cols+off : b*cols+off+dim+1]
			for c := 0; c < dim; c++ {
				var w float32
				if len(bag.Indices) > 0 {
					w = want[k*dim+c]
				}
				if math.Float32bits(row[c]) != math.Float32bits(w) {
					t.Fatalf("entry %d bag %d column %d = %v, want %v", i, b, c, row[c], w)
				}
			}
			if row[dim] != -1 {
				t.Fatalf("entry %d bag %d: the column after the entry was written", i, b)
			}
			if len(bag.Indices) > 0 {
				k++
			}
		}
		off += dim + 1
	}
}

func TestPoolPanicsOnMisfitOut(t *testing.T) {
	tab := NewDense(4, 2)
	lens, idx := []int32{1, 0, 2}, []int32{1, 2, 3}
	short := tab.Quantize(quant.Bits8)
	short.Encoding().Biases = short.Encoding().Biases[:3]
	for name, e := range map[string]PoolEntry{
		"quantized under shape": {Table: short, Lens: lens, Indices: idx, Out: make([]float32, 4)},
		"packed too short":      {Table: tab, Lens: lens, Indices: idx, Out: make([]float32, 2)},
		"packed too long":       {Table: tab, Lens: lens, Indices: idx, Out: make([]float32, 6)},
		"stride under dim":      {Table: tab, Lens: lens, Indices: idx, Out: make([]float32, 6), Stride: 1},
		"strided too short":     {Table: tab, Lens: lens, Indices: idx, Out: make([]float32, 7), Stride: 3},
		"table under shape":     {Table: &Dense{RowsN: 4, DimN: 2, Data: make([]float32, 7)}, Lens: lens, Indices: idx, Out: make([]float32, 4)},
		"negative length":       {Table: tab, Lens: []int32{1, -1, 2}, Indices: idx, Out: make([]float32, 4)},
		"lengths past the end":  {Table: tab, Lens: []int32{1, 0, 3}, Indices: idx, Out: make([]float32, 4)},
		"indices left over":     {Table: tab, Lens: []int32{1, 0, 1}, Indices: idx, Out: make([]float32, 4)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Pool([]PoolEntry{e})
		}()
	}
}
