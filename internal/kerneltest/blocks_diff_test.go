package kerneltest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// blockCase is one block-addressed GEMM problem in both of its forms: the
// dense a matrix the harness filled, with every absent block's columns
// zeroed, and the block table over packed copies of the present blocks.
// The harness builds both itself, so neither is derived by the code under
// test.
type blockCase struct {
	dense  *tensor.Matrix
	blocks *tensor.Blocks
}

// blockWidths cuts k columns into slots of 8 and 16 — the models' two
// embedding widths, mixed in one row (a last slot takes what is left).
func blockWidths(rng *rand.Rand, k int) []int {
	var widths []int
	for k > 0 {
		w := 8 << rng.Intn(2)
		if w > k {
			w = k
		}
		widths = append(widths, w)
		k -= w
	}
	return widths
}

// newBlockCase fills an m-row a of the given slot widths with payload p,
// keeps each block with probability present, and packs the kept blocks of
// a slot — in a shuffled order, behind a few values of padding, so that a
// handle is all that says where a block is — into storage from alloc.
func newBlockCase(rng *rand.Rand, m int, widths []int, present float64, p Payload, alloc func(n int) []float32, handles []uint32, slots []tensor.BlockSlot) blockCase {
	k := 0
	for _, w := range widths {
		k += w
	}
	dense := RandMatrix(rng, m, k, p)
	blocks := &tensor.Blocks{Rows: m, Cols: k, Stride: m, Slots: slots[:len(widths)], Handles: handles[:len(widths)*m]}
	clear(blocks.Handles)
	col := 0
	for s, w := range widths {
		var rows []int
		for r := 0; r < m; r++ {
			if rng.Float64() < present {
				rows = append(rows, r)
			} else {
				clear(dense.Row(r)[col : col+w])
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		pad := rng.Intn(3)
		data := alloc(pad + len(rows)*w)
		for i := range data[:pad] {
			data[i] = float32(math.NaN()) // never addressed
		}
		for i, r := range rows {
			at := pad + i*w
			copy(data[at:at+w], dense.Row(r)[col:col+w])
			blocks.Handles[s*m+r] = uint32(at) + 1
		}
		blocks.Slots[s] = tensor.BlockSlot{Data: data, Col: int32(col), Width: int32(w)}
		col += w
	}
	return blockCase{dense: dense, blocks: blocks}
}

// blockPresence are the shares of blocks kept: none, a net of mostly empty
// bags (the row kernel's), the models' overall share, a dense-ish net (the
// tile's) and all.
var blockPresence = []float64{0, 0.09, 0.28, 0.70, 1}

// checkBlocks runs the block-addressed GEMM, and the dense one over the
// same values, under every dispatch, with and without the fused epilogue,
// and holds both to the harness oracle over the dense form.
func checkBlocks(t *testing.T, ds []dispatch, c blockCase, b *tensor.Matrix, bias []float32, dst *tensor.Matrix, what string) {
	t.Helper()
	sums := tensor.New(c.dense.Rows, b.Cols)
	RefMatMul(sums, c.dense, b)
	for _, relu := range []bool{false, true} {
		for _, bs := range [][]float32{nil, bias} {
			want := sums.Clone()
			RefEpilogue(want, bs, relu)
			for _, d := range ds {
				d.set()
				for form, run := range map[string]func(){
					"blocks": func() { tensor.MatMulBlocks(dst, c.blocks, b, bs, relu) },
					"dense":  func() { tensor.MatMulEpilogue(dst, c.dense, b, bs, relu) },
				} {
					for i := range dst.Data {
						dst.Data[i] = float32(math.NaN()) // dirty dst
					}
					run()
					if i := DiffFloat32(dst.Data, want.Data); i >= 0 {
						t.Fatalf("%s %s bias=%v relu=%v %v: element %d = %08x, want %08x", what, form, bs != nil, relu, d, i,
							math.Float32bits(dst.Data[i]), math.Float32bits(want.Data[i]))
					}
				}
			}
		}
	}
}

// TestGEMMBlocksDifferential is the differential property for the
// block-addressed form of the GEMM: for 1–24 rows of slots 8 and 16 wide,
// block presence from none to all, outputs one column, one and a half
// strips, four strips and four strips plus a tail wide, and every payload
// class inside the present blocks, MatMulBlocks under every kernel family
// and lane width has the bits of the harness oracle over the dense matrix
// the table stands for — so an absent block is exactly Width skipped
// zeros, a present one is summed in column order after every block before
// it, and NaN, ±Inf and subnormal b rows under an absent block reach
// nothing. Row counts off the four-row grid and mixed presence within a
// group send the same table through both kernels.
func TestGEMMBlocksDifferential(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(2024))
	heap := func(n int) []float32 { return make([]float32, n) }
	for _, p := range Payloads() {
		for _, n := range []int{1, 96, 256, 300} {
			for _, present := range blockPresence {
				for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 24} {
					widths := blockWidths(rng, 8*(1+rng.Intn(40)))
					c := newBlockCase(rng, m, widths, present, p, heap, make([]uint32, len(widths)*m), make([]tensor.BlockSlot, len(widths)))
					b := RandMatrix(rng, c.dense.Cols, n, p.B())
					bias := make([]float32, n)
					p.B().Fill(rng, bias)
					checkBlocks(t, ds, c, b, bias, tensor.New(m, n),
						fmt.Sprintf("payload=%s rows=%d slots=%d n=%d present=%.2f", p.Name, m, len(widths), n, present))
				}
			}
		}
	}
}

// TestGEMMBlocksRowRange: a batch's row range of a fetch's table — the
// form the engine multiplies — reads the rows it names, at the table's
// stride.
func TestGEMMBlocksRowRange(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(9))
	p := Payloads()[0]
	const m, n = 37, 96
	widths := blockWidths(rng, 200)
	c := newBlockCase(rng, m, widths, 0.4, p, func(n int) []float32 { return make([]float32, n) }, make([]uint32, len(widths)*m), make([]tensor.BlockSlot, len(widths)))
	b := RandMatrix(rng, c.dense.Cols, n, p)
	for _, cut := range [][2]int{{0, 16}, {16, 16}, {32, 5}, {5, 24}, {36, 1}, {11, 0}} {
		from, rows := cut[0], cut[1]
		part := blockCase{
			dense:  tensor.FromSlice(rows, c.dense.Cols, c.dense.Data[from*c.dense.Cols:(from+rows)*c.dense.Cols]),
			blocks: c.blocks.RowRange(from, rows),
		}
		checkBlocks(t, ds, part, b, make([]float32, n), tensor.New(rows, n), fmt.Sprintf("rows [%d, %d)", from, from+rows))
	}
}

// TestMatMulBlocksRefusesMalformedTables: a table whose slots do not tile
// b's rows, or are wider than the zero block an absent row reads, or
// whose handles run out or point past their slot's storage, panics before
// a kernel follows anything.
func TestMatMulBlocksRefusesMalformedTables(t *testing.T) {
	defer resetDispatch()
	good := func() *tensor.Blocks {
		data := make([]float32, 4*8)
		return &tensor.Blocks{Rows: 4, Cols: 16, Stride: 4, Handles: []uint32{1, 9, 17, 25, 0, 1, 0, 9},
			Slots: []tensor.BlockSlot{{Data: data, Col: 0, Width: 8}, {Data: data, Col: 8, Width: 8}}}
	}
	b, dst := tensor.New(16, 64), tensor.New(4, 64)
	for _, d := range dispatches(t) {
		d.set()
		tensor.MatMulBlocks(dst, good(), b, nil, false)
		for name, breakIt := range map[string]func(a *tensor.Blocks){
			"gap between slots":     func(a *tensor.Blocks) { a.Slots[1].Col = 9 },
			"slots short of k":      func(a *tensor.Blocks) { a.Slots = a.Slots[:1] },
			"zero-width slot":       func(a *tensor.Blocks) { a.Slots[1].Width = 0 },
			"slot wider than zeros": func(a *tensor.Blocks) { a.Slots[1].Width = tensor.MaxBlockWidth + 1 },
			"too few handles":       func(a *tensor.Blocks) { a.Handles = a.Handles[:7] },
			"stride under rows":     func(a *tensor.Blocks) { a.Stride = 3 },
			"handle past storage":   func(a *tensor.Blocks) { a.Handles[3] = 26 },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: %s was multiplied", d, name)
					}
				}()
				a := good()
				breakIt(a)
				tensor.MatMulBlocks(dst, a, b, nil, false)
			}()
		}
	}
}
