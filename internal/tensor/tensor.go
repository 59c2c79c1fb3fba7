// Package tensor implements the minimal dense linear-algebra substrate the
// recommendation models need: row-major float32 matrices, GEMM, bias
// addition, and elementwise activations.
//
// The paper's models run on Caffe2's CPU operators; float32 everywhere
// (Section V-A: "All parameters were uncompressed as single-precision
// floating point"). We match that: float32 storage, float32 accumulation
// for elementwise ops, and a float32 GEMM whose cost scales with m·k·n, so
// dense-layer cost dominates the per-request compute profile the way
// Fig. 4 reports — a portable Go kernel, with a register-tiled assembly
// twin behind tensor.SetKernel, and no cgo.
package tensor

import "fmt"

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (r, c) is Data[r*Cols+c].
	Data []float32
}

// New allocates a zeroed rows×cols matrix. It panics if either dimension
// is negative, which is a programmer error.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix without copying. It panics if
// len(data) != rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []float32 {
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Bytes returns the storage footprint of the matrix payload in bytes.
func (m *Matrix) Bytes() int64 { return int64(len(m.Data)) * 4 }

// String renders a compact shape description (not the contents).
func (m *Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// MatMul computes dst = a × b for a (m×k) and b (k×n). dst must be m×n and
// may not alias a or b. It panics on shape mismatch. The whole multiply
// runs on the caller's goroutine (gemm.go); per-element accumulation
// order is fixed, so results are bitwise identical under every kernel
// setting. Its cost scales with m·k·n, so relative compute attributions
// are faithful.
func MatMul(dst, a, b *Matrix) { matmul(dst, a, b, nil, false) }

// MatMulEpilogue computes dst = a × b + bias, then max(0, ·) when relu
// is set, as one operation: the register-tiled kernel adds the bias and
// applies the ReLU to each tile while it is still in registers, so dst
// is written once and never re-read. bias has length dst.Cols, or is nil
// for none. Results are bitwise identical to MatMul followed by
// AddBiasRows and ReLU.
func MatMulEpilogue(dst, a, b *Matrix, bias []float32, relu bool) { matmul(dst, a, b, bias, relu) }

// shapeErr formats the MatMul shape-mismatch panic.
func shapeErr(op string, dst, a, b *Matrix) string {
	return fmt.Sprintf("tensor: %s shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
		op, a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols)
}

// AddBiasRows adds bias (length = m.Cols) to every row of m in place.
func AddBiasRows(m *Matrix, bias []float32) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("tensor: bias length %d != cols %d", len(bias), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		addBias(m.Row(r), bias)
	}
}

// addBias adds bias to one row in place: the single loop behind
// AddBiasRows and the generic GEMM epilogue.
func addBias(row, bias []float32) {
	for c := range row {
		row[c] += bias[c]
	}
}

// ReLU applies max(0, x) elementwise in place.
func ReLU(m *Matrix) { ReLUSlice(m.Data) }

// ReLUSlice applies max(0, x) elementwise in place on a raw slice — the
// row-range form fused GEMM epilogues use.
func ReLUSlice(xs []float32) {
	for i, v := range xs {
		if v < 0 {
			xs[i] = 0
		}
	}
}

// Sigmoid applies the logistic function elementwise in place.
func Sigmoid(m *Matrix) { SigmoidSlice(m.Data) }

// SigmoidSlice applies the logistic function elementwise in place on a
// raw slice.
func SigmoidSlice(xs []float32) {
	for i, v := range xs {
		xs[i] = sigmoid32(v)
	}
}

func sigmoid32(x float32) float32 {
	// Clamp to avoid overflow in exp for extreme logits.
	if x > 30 {
		return 1
	}
	if x < -30 {
		return 0
	}
	return float32(1.0 / (1.0 + exp64(-float64(x))))
}

// Concat concatenates matrices horizontally (same row count). It returns a
// new matrix with Cols = sum of inputs' Cols.
func Concat(ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic(fmt.Sprintf("tensor: Concat row mismatch %d != %d", m.Rows, rows))
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	ConcatInto(out, ms...)
	return out
}

// ConcatInto concatenates matrices horizontally into dst, which must be
// rows×Σcols. It panics on shape mismatch. dst may not alias an input.
func ConcatInto(dst *Matrix, ms ...*Matrix) {
	cols := 0
	for _, m := range ms {
		if m.Rows != dst.Rows {
			panic(fmt.Sprintf("tensor: ConcatInto row mismatch %d != %d", m.Rows, dst.Rows))
		}
		cols += m.Cols
	}
	if cols != dst.Cols {
		panic(fmt.Sprintf("tensor: ConcatInto dst has %d cols, inputs total %d", dst.Cols, cols))
	}
	for r := 0; r < dst.Rows; r++ {
		off := 0
		out := dst.Row(r)
		for _, m := range ms {
			copy(out[off:off+m.Cols], m.Row(r))
			off += m.Cols
		}
	}
}

// PairwiseDot computes the DLRM-style feature interaction: given f feature
// vectors of dimension d per example (rows of each member of feats), it
// returns a matrix with one row per example containing the f·(f−1)/2
// upper-triangular pairwise dot products. All inputs must share shape.
func PairwiseDot(feats []*Matrix) *Matrix {
	if len(feats) == 0 {
		return New(0, 0)
	}
	f := len(feats)
	out := New(feats[0].Rows, f*(f-1)/2)
	PairwiseDotInto(out, feats)
	return out
}

// PairwiseDotInto is PairwiseDot writing into dst, which must be
// rows × f·(f−1)/2 for f equal-shaped feature matrices. dst may not
// alias an input.
func PairwiseDotInto(dst *Matrix, feats []*Matrix) {
	if len(feats) == 0 {
		if dst.Rows != 0 || dst.Cols != 0 {
			panic("tensor: PairwiseDotInto dst not empty for zero features")
		}
		return
	}
	rows, d := feats[0].Rows, feats[0].Cols
	for _, m := range feats {
		if m.Rows != rows || m.Cols != d {
			panic(fmt.Sprintf("tensor: PairwiseDotInto shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, rows, d))
		}
	}
	f := len(feats)
	if dst.Rows != rows || dst.Cols != f*(f-1)/2 {
		panic(fmt.Sprintf("tensor: PairwiseDotInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, rows, f*(f-1)/2))
	}
	vecs := make([][]float32, f)
	for r := 0; r < rows; r++ {
		for i, m := range feats {
			vecs[i] = m.Row(r)
		}
		PairwiseDotVecs(dst.Row(r), vecs)
	}
}

// PairwiseDotVecs writes one example's f·(f−1)/2 upper-triangular
// pairwise dot products of its f equal-length feature vectors into dst,
// which may be any slice of at least that length (e.g. a column range of
// a wider row). It is the single accumulation loop behind PairwiseDot
// and the engine's fused interaction op, so the bitwise accumulation
// order cannot drift between them.
//
// A dot is one chain of dependent adds, an add's latency per element, so
// for a fixed i four j run together (then two, then one), each in its own
// accumulator and each still summed over c ascending: the same bits, with
// the chains in flight together.
func PairwiseDotVecs(dst []float32, vecs [][]float32) {
	k := 0
	for i, vi := range vecs {
		rest := vecs[i+1:]
		for ; len(rest) >= 4; rest = rest[4:] {
			v0, v1, v2, v3 := rest[0][:len(vi)], rest[1][:len(vi)], rest[2][:len(vi)], rest[3][:len(vi)]
			var a0, a1, a2, a3 float32
			for c, x := range vi {
				a0 += float32(x * v0[c])
				a1 += float32(x * v1[c])
				a2 += float32(x * v2[c])
				a3 += float32(x * v3[c])
			}
			dst[k], dst[k+1], dst[k+2], dst[k+3] = a0, a1, a2, a3
			k += 4
		}
		if len(rest) >= 2 {
			v0, v1 := rest[0][:len(vi)], rest[1][:len(vi)]
			var a0, a1 float32
			for c, x := range vi {
				a0 += float32(x * v0[c])
				a1 += float32(x * v1[c])
			}
			dst[k], dst[k+1] = a0, a1
			k, rest = k+2, rest[2:]
		}
		for _, vj := range rest {
			vj = vj[:len(vi)]
			var acc float32
			for c := range vi {
				acc += float32(vi[c] * vj[c])
			}
			dst[k] = acc
			k++
		}
	}
}
