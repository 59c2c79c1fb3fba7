//go:build !amd64

package quant

// Stubs for architectures without encode_amd64.s. They are never
// called — tensor.VectorLanes is 0 off amd64, so QuantizeRows runs the
// generic loop — but must exist to typecheck.

func rangeRows(src *float32, cols, rows int, lo, hi *float32) { panic("no encode asm") }

func encodeRows(src *float32, cols, rows int, scale, bias *float32, dst *byte, levels float32, nibbles bool) {
	panic("no encode asm")
}
