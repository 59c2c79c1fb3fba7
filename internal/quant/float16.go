package quant

import "math"

// Float16 helpers for the per-row (scale, bias) headers of quantized
// embedding rows. Production row-wise quantization stores fp16 headers so
// the header does not dominate small-dimension rows; we do the same.
// Only the conversions needed here are implemented: round-to-nearest-even
// float32→float16 and exact float16→float32.

// f32to16 converts a float32 to IEEE 754 binary16 with round-to-nearest-
// even, clamping overflow to ±Inf. Every NaN becomes the canonical quiet
// NaN with its sign: 0x7e00 or 0xfe00.
func f32to16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	mant := b & 0x7fffff

	switch {
	case exp >= 0x1f:
		// Overflow, Inf or NaN: a NaN's payload is dropped, not kept.
		if int32(b>>23&0xff) == 0xff && mant != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp <= 0:
		// Subnormal or underflow to zero.
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := (mant + half - 1 + (mant>>shift)&1) >> shift
		return sign | uint16(rounded)
	default:
		// Normal: round mantissa from 23 to 10 bits, nearest-even.
		rounded := mant + 0xfff + (mant>>13)&1
		if rounded&0x800000 != 0 {
			rounded = 0
			exp++
			if exp >= 0x1f {
				return sign | 0x7c00
			}
		}
		return sign | uint16(exp)<<10 | uint16(rounded>>13)
	}
}

// f16to32 converts IEEE 754 binary16 to float32 exactly.
func f16to32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}
