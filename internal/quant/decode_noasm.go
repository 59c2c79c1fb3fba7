//go:build !amd64

package quant

// Stubs for architectures without the SIMD decode assembly. They are
// never called — tensor.ActiveKernel resolves to the generic family
// off amd64, so vectorActive is false and the scalar decoders run —
// but must exist to typecheck.

func accum8ptr(acc *float32, src *byte, n int, scale, bias float32)   { panic("no decode asm") }
func dequant8ptr(dst *float32, src *byte, n int, scale, bias float32) { panic("no decode asm") }
func accum4ptr(acc *float32, src *byte, n int, scale, bias float32)   { panic("no decode asm") }
func dequant4ptr(dst *float32, src *byte, n int, scale, bias float32) { panic("no decode asm") }
