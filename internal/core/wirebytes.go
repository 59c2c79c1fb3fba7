package core

import (
	"encoding/binary"
	"math"
	"unsafe"

	"repro/internal/mmapfile"
)

// wireNative reports that the host stores 32-bit values the way the wire
// does (little-endian), so []float32 / []int32 memory *is* wire bytes:
// bulk values move with one memmove, a sparse shard pools straight into
// its response body, and the main shard reads pooled rows in place. A
// big-endian host takes the conversion path instead — one
// encoding/binary pass per hop — and produces identical bytes. It is
// fixed at start-up; only tests force the conversion path.
var wireNative = mmapfile.ViewsUsable()

// f32Bytes views xs as its in-memory bytes.
func f32Bytes(xs []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs))
}

// appendF32s appends xs in wire order.
func appendF32s(b []byte, xs []float32) []byte {
	if wireNative {
		return append(b, f32Bytes(xs)...)
	}
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// putF32s stores xs in wire order at the front of dst.
func putF32s(dst []byte, xs []float32) {
	if wireNative {
		copy(dst[:4*len(xs)], f32Bytes(xs))
		return
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

// getF32s fills dst from the wire bytes at the front of src.
func getF32s(dst []float32, src []byte) {
	if wireNative {
		copy(f32Bytes(dst), src[:4*len(dst)])
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// aligned4 reports whether b starts on a 4-byte boundary.
func aligned4(b []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0
}

// viewF32s returns the float32s encoded in b (len(b) a multiple of 4)
// without copying when the host can read them in place — wire-native and
// 4-byte aligned, which the rpc client arranges for response bodies —
// and as a decoded copy otherwise. The result aliases b: read-only.
func viewF32s(b []byte) []float32 {
	if wireNative && aligned4(b) {
		return mmapfile.Float32s(b)
	}
	return mmapfile.DecodeF32(b)
}

// floatsOver returns float32 storage for values destined for the wire
// region b (4-byte aligned, as alignedBytes makes it): b itself on a
// wire-native host, so accumulating into it writes the wire bytes; else
// scratch the caller stores into b with putF32s when done.
func floatsOver(b []byte) []float32 {
	if wireNative {
		return mmapfile.Float32s(b)
	}
	return make([]float32, len(b)/4)
}

// alignedBytes returns n zeroed bytes starting on a 4-byte boundary, as
// one allocation: the backing store is a []uint32.
func alignedBytes(n int) []byte {
	words := make([]uint32, (n+3)/4)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// i32Bytes views xs as its in-memory bytes.
func i32Bytes(xs []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs))
}

// putI32s stores xs in wire order at the front of dst: one memmove on a
// wire-native host — how bag lengths and hashed indices enter a request
// body.
func putI32s(dst []byte, xs []int32) {
	if wireNative {
		copy(dst[:4*len(xs)], i32Bytes(xs))
		return
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
	}
}

// viewI32s returns the int32s encoded in b (len(b) a multiple of 4)
// without copying when the host can read them in place — wire-native and
// 4-byte aligned, which the rpc server arranges for request bodies and
// alignedBytes for the ones built here — and as a decoded copy otherwise.
// The result may alias b: read-only.
func viewI32s(b []byte) []int32 {
	if wireNative && aligned4(b) {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
