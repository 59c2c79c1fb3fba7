package tensor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// testBlocks is a rows-tall table of slots of the given widths over
// packed storage, a block present where keep says so.
func testBlocks(rng *rand.Rand, rows int, widths []int, keep func(r, s int) bool) *Blocks {
	a := &Blocks{Rows: rows, Stride: rows, Slots: make([]BlockSlot, len(widths)), Handles: make([]uint32, len(widths)*rows)}
	for s, w := range widths {
		var data []float32
		for r := 0; r < rows; r++ {
			if !keep(r, s) {
				continue
			}
			a.Handles[s*rows+r] = uint32(len(data)) + 1
			for c := 0; c < w; c++ {
				data = append(data, float32(rng.NormFloat64()))
			}
		}
		a.Slots[s] = BlockSlot{Data: data, Col: int32(a.Cols), Width: int32(w)}
		a.Cols += w
	}
	return a
}

// TestMatMulBlocksMatchesDense: the GEMM over a block table is the GEMM
// over the matrix it stands for, bit for bit, under every dispatch and
// for every row range — whichever of the two kernels a group's presence
// sends it to.
func TestMatMulBlocksMatchesDense(t *testing.T) {
	defer SetKernel(KernelAuto)
	defer func(w int) { gemmLanes = w }(gemmLanes)
	rng := rand.New(rand.NewSource(12))
	widths := []int{8, 16, 8, 8, 16, 16, 8}
	for _, keep := range []func(r, s int) bool{
		func(int, int) bool { return true },
		func(int, int) bool { return false },
		func(r, s int) bool { return (r*7+s*3)%10 == 0 },
		func(r, s int) bool { return (r+s)%4 != 0 },
	} {
		a := testBlocks(rng, 19, widths, keep)
		dense := a.Dense()
		for r := 0; r < a.Rows; r++ {
			for s := range a.Slots {
				if got, want := a.Block(r, s), dense.Row(r)[a.Slots[s].Col:][:a.Slots[s].Width]; !sameFloats(got, want) {
					t.Fatalf("Block(%d, %d) = %v, Dense has %v", r, s, got, want)
				}
			}
		}
		b, bias := randMatrix(rng, a.Cols, 96), randMatrix(rng, 1, 96).Data
		for _, d := range dispatches(t) {
			SetKernel(d.kern)
			gemmLanes = d.lanes
			for _, cut := range [][2]int{{0, 19}, {0, 16}, {16, 3}, {5, 8}, {18, 1}, {7, 0}} {
				part := a.RowRange(cut[0], cut[1])
				want, got := New(cut[1], 96), New(cut[1], 96)
				MatMulEpilogue(want, FromSlice(cut[1], a.Cols, dense.Data[cut[0]*a.Cols:(cut[0]+cut[1])*a.Cols]), b, bias, true)
				MatMulBlocks(got, part, b, bias, true)
				bitsEqual(t, fmt.Sprintf("rows [%d, %d) %+v", cut[0], cut[0]+cut[1], d), got, want)
			}
		}
	}
}

func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBlocksRefusals: a table that does not tile b's rows, a row range
// outside the table and a shape mismatch panic with a message that says
// which.
func TestBlocksRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if s, _ := r.(string); r == nil || !strings.Contains(s, want) {
				t.Errorf("%s: panic %v, want one mentioning %q", name, r, want)
			}
		}()
		f()
	}
	good := func() *Blocks { return testBlocks(rng, 4, []int{8, 8}, func(int, int) bool { return true }) }
	b, dst := New(16, 8), New(4, 8)
	mustPanic("row range", "rows [3, 6)", func() { good().RowRange(3, 3) })
	mustPanic("shape", "shape mismatch", func() { MatMulBlocks(New(3, 8), good(), b, nil, false) })
	mustPanic("gap", "block slot 1", func() { a := good(); a.Slots[1].Col = 9; MatMulBlocks(dst, a, b, nil, false) })
	mustPanic("width", "block slot 0", func() { a := good(); a.Slots[0].Width = MaxBlockWidth + 1; MatMulBlocks(dst, a, b, nil, false) })
	mustPanic("cover", "cover 8 of 16", func() { a := good(); a.Slots = a.Slots[:1]; MatMulBlocks(dst, a, b, nil, false) })
	mustPanic("handles", "handles for 4 rows", func() { a := good(); a.Handles = a.Handles[:6]; MatMulBlocks(dst, a, b, nil, false) })
	mustPanic("bias", "bias length", func() { MatMulBlocks(dst, good(), b, make([]float32, 3), false) })
}

// TestPairwiseDotVecsEveryGroupWidth: with seven features a row of the
// triangle runs the four-wide, the two-wide and the single loop; each dot
// must be the plain ascending sum.
func TestPairwiseDotVecsEveryGroupWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vecs := make([][]float32, 7)
	for i := range vecs {
		vecs[i] = randMatrix(rng, 1, 16).Data
	}
	var want []float32
	for i, vi := range vecs {
		for _, vj := range vecs[i+1:] {
			var acc float32
			for c := range vi {
				acc += vi[c] * vj[c]
			}
			want = append(want, acc)
		}
	}
	got := make([]float32, len(want))
	PairwiseDotVecs(got, vecs)
	bitsEqual(t, "7 features", FromSlice(1, len(got), got), FromSlice(1, len(want), want))
}
