//go:build amd64

package quant

// The row encoder's AVX kernels (encode_amd64.s; encode_vector.go has
// the contract and the driver). Each takes rows ≥ 1 consecutive rows of
// cols ≥ 1 values at src.

// rangeRows writes to lo[i] the least of +MaxFloat32 and row i's non-NaN
// values, and to hi[i] the greatest of −MaxFloat32 and them.
//
//go:noescape
func rangeRows(src *float32, cols, rows int, lo, hi *float32)

// encodeRows writes each row's codes against its (scale[i], bias[i]) to
// dst: cols bytes a row, or (cols+1)/2 with nibbles set (the even column
// in the low nibble).
//
//go:noescape
func encodeRows(src *float32, cols, rows int, scale, bias *float32, dst *byte, levels float32, nibbles bool)
