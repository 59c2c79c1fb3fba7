//go:build amd64

package quant

// SIMD row decode for amd64 (decode_amd64.s): 8 int8 codes (or 16 int4
// codes) unpack from one word load through PUNPCKLBW zero-extension and
// CVTDQ2PS conversion, then vector scale*code + bias into the
// accumulator. SSE2-only — guaranteed on every amd64, so unlike the
// GEMM register tile no CPUID gate is needed. Per lane the operation
// sequence (convert, multiply by scale, add bias, add into acc — with
// the same x86 first-source operands the compiled scalar kernels use,
// established empirically per width by internal/kerneltest) matches
// the scalar decoder exactly, so results are bitwise identical even
// for NaN/Inf header payloads.
//
// The assembly bodies process full 8- (int8) or 16-element (int4)
// groups; the Go wrappers in decode_vector.go run the remaining tail
// through the same scalar code the generic kernel uses.

//go:noescape
func accum8ptr(acc *float32, src *byte, n int, scale, bias float32)

//go:noescape
func dequant8ptr(dst *float32, src *byte, n int, scale, bias float32)

//go:noescape
func accum4ptr(acc *float32, src *byte, n int, scale, bias float32)

//go:noescape
func dequant4ptr(dst *float32, src *byte, n int, scale, bias float32)
