package quant

import "repro/internal/tensor"

// SIMD quantized-row decode: the vectorized arm of the kernel dispatch
// table (tensor.SetKernel / REPRO_KERNEL). The scalar decoders in
// quant.go load one packed byte per element; these run full groups of 8
// (int8) or 16 (int4) codes through the amd64 assembly (decode_amd64.s)
// — byte unpack, integer→float convert, and the scale*code + bias
// accumulate all vector-wide — and the remaining tail through the
// scalar expression. Per element the arithmetic is exactly the scalar
// kernel's — the same uint8→float32 conversion feeding the same
// scale*code + bias expression — so accumulation results are bitwise
// identical, a property the differential tests and the
// FuzzWordWideRowDecode target in decode_fuzz_test.go pin down on
// arbitrary row bytes, lengths, and slice offsets.
//
// Eligibility is resolved by the tensor dispatch table:
// tensor.ActiveKernel only returns KernelVector on amd64, so on every
// other architecture these are never called and the scalar reference
// decoders carry both families.

// vectorActive reports whether the SIMD decoders should run. A
// plain helper so every quant entry point resolves dispatch the same
// way (and exactly once per row or bag, not per element).
func vectorActive() bool { return tensor.ActiveKernel() == tensor.KernelVector }

// accumulateRow8Vec adds scale*code + bias for the n int8 codes in src
// into acc[0:n], 8 codes per step.
func accumulateRow8Vec(acc []float32, src []byte, scale, bias float32, n int) {
	c := 0
	if m := n &^ 7; m > 0 {
		a, s := acc[:m], src[:m]
		accum8ptr(&a[0], &s[0], m, scale, bias)
		c = m
	}
	for ; c < n; c++ {
		acc[c] += float32(scale*float32(src[c])) + bias
	}
}

// dequantizeRow8Vec writes scale*code + bias for the n int8 codes in src
// into dst[0:n], 8 codes per step.
func dequantizeRow8Vec(dst []float32, src []byte, scale, bias float32, n int) {
	c := 0
	if m := n &^ 7; m > 0 {
		d, s := dst[:m], src[:m]
		dequant8ptr(&d[0], &s[0], m, scale, bias)
		c = m
	}
	for ; c < n; c++ {
		dst[c] = float32(scale*float32(src[c])) + bias
	}
}

// accumulateRow4Vec adds scale*code + bias for the n int4 codes packed
// two per byte in src into acc[0:n], 16 codes per step. Nibble order
// matches the scalar decoder: low nibble is the even column.
func accumulateRow4Vec(acc []float32, src []byte, scale, bias float32, n int) {
	c := 0
	if m := n &^ 15; m > 0 {
		a, s := acc[:m], src[:m/2]
		accum4ptr(&a[0], &s[0], m, scale, bias)
		c = m
	}
	for ; c < n; c++ {
		b := src[c/2]
		var code uint8
		if c%2 == 0 {
			code = b & 0x0f
		} else {
			code = b >> 4
		}
		acc[c] += float32(scale*float32(code)) + bias
	}
}

// dequantizeRow4Vec writes scale*code + bias for the n int4 codes packed
// two per byte in src into dst[0:n], 16 codes per step.
func dequantizeRow4Vec(dst []float32, src []byte, scale, bias float32, n int) {
	c := 0
	if m := n &^ 15; m > 0 {
		d, s := dst[:m], src[:m/2]
		dequant4ptr(&d[0], &s[0], m, scale, bias)
		c = m
	}
	for ; c < n; c++ {
		b := src[c/2]
		var code uint8
		if c%2 == 0 {
			code = b & 0x0f
		} else {
			code = b >> 4
		}
		dst[c] = float32(scale*float32(code)) + bias
	}
}
