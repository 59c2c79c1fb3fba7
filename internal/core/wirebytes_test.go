package core

import (
	"bytes"
	"math"
	"testing"
)

// forceConversionPath makes the codecs, the shard's response layout and
// the main shard's scatter take the path a big-endian host takes, for
// the rest of the test. Not for parallel tests.
func forceConversionPath(t *testing.T) {
	t.Helper()
	was := wireNative
	wireNative = false
	t.Cleanup(func() { wireNative = was })
}

// TestWireBytesPathsAgree pins the in-place helpers to the portable ones
// on bit patterns a float32 round trip could disturb, at an unaligned
// source offset too.
func TestWireBytesPathsAgree(t *testing.T) {
	if !wireNative {
		t.Skip("host is not wire-native: only the conversion path exists here")
	}
	vals := []float32{
		0, math.Float32frombits(0x80000000), 1, -2.5, math.Float32frombits(1),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, math.Float32frombits(0x7fc00001),
	}
	native := appendF32s(nil, vals)
	put := make([]byte, 4*len(vals))
	putF32s(put, vals)

	forceConversionPath(t)
	portable := appendF32s(nil, vals)
	if !bytes.Equal(native, portable) || !bytes.Equal(put, portable) {
		t.Fatalf("in-place bytes\n%x\n%x\nconversion bytes\n%x", native, put, portable)
	}
	for _, off := range []int{0, 1, 2, 3} {
		src := append(make([]byte, off), portable...)[off:]
		want := make([]float32, len(vals))
		getF32s(want, src)
		wireNative = true
		got := make([]float32, len(vals))
		getF32s(got, src)
		view := viewF32s(src)
		wireNative = false
		for i := range vals {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(view[i]) != math.Float32bits(want[i]) ||
				math.Float32bits(want[i]) != math.Float32bits(vals[i]) {
				t.Fatalf("offset %d value %d: in-place %x view %x conversion %x, want %x", off, i,
					math.Float32bits(got[i]), math.Float32bits(view[i]), math.Float32bits(want[i]), math.Float32bits(vals[i]))
			}
		}
	}
}

func TestViewF32sAliasesOnlyWhenAligned(t *testing.T) {
	if !wireNative {
		t.Skip("host is not wire-native")
	}
	buf := alignedBytes(16)
	if v := viewF32s(buf[4:12]); &v[0] != &viewF32s(buf)[1] {
		t.Error("aligned region was copied, want a view")
	}
	v := viewF32s(buf[1:9])
	buf[1] = 0xff
	if math.Float32bits(v[0]) != 0 {
		t.Error("unaligned region was viewed, want a decoded copy")
	}
}
