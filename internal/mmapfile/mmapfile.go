// Package mmapfile provides memory outside the Go heap, in two kinds of
// mapping. Open maps a file read-only, for the persistent shard-table
// format: a shard process serves embedding rows directly from
// file-backed byte slices instead of regenerating (or heap-copying) its
// tables at boot. Anon maps private, read-write, zeroed memory backed by
// no file, for the model generator's fp32 tables: their rows count
// toward the process's resident set but not toward the live heap or the
// GC's heap goal. On platforms without mmap, or when the mmap call
// fails, both fall back to the heap transparently, so callers never
// branch on platform; where the host byte order is not the file format's
// little-endian, callers decode file bytes (DecodeF32) instead of viewing
// them.
package mmapfile

import (
	"encoding/binary"
	"unsafe"
)

// File is an open view of a file's contents, read-only, or an anonymous
// region, read-write: either a live memory mapping or heap memory (the
// fallback). Close releases the mapping; any slices derived from Bytes
// (including the typed views below) are invalid afterwards. The GC does
// not trace into a mapping, so a view keeps nothing alive: whoever holds
// a view must keep its File open.
type File struct {
	data   []byte
	mapped bool
}

// Bytes returns the contents. For a mapped file the slice is backed by
// the page cache and must not be written to (the mapping is PROT_READ;
// writes fault); an anonymous region's may be.
func (f *File) Bytes() []byte { return f.data }

// Mapped reports whether the contents are served from a memory mapping
// (false: heap fallback).
func (f *File) Mapped() bool { return f.mapped }

// hostLittleEndian reports whether the host stores multi-byte integers
// little-endian — the precondition for viewing file bytes as typed
// slices without decoding.
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// ViewsUsable reports whether Float32s/Uint16s views over file bytes
// decode correctly on this host (little-endian file format). An
// anonymous region holds no file format: a view of it is always usable.
func ViewsUsable() bool { return hostLittleEndian() }

// Float32s views b as a []float32 without copying. The caller must
// ensure len(b) is a multiple of 4, b is 4-byte aligned (page-aligned
// file sections and anonymous regions are) and, for file bytes,
// ViewsUsable() holds; otherwise use DecodeF32.
func Float32s(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// Uint16s views b as a []uint16 without copying, under the same
// preconditions as Float32s (2-byte alignment).
func Uint16s(b []byte) []uint16 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), len(b)/2)
}

// DecodeF32 decodes little-endian float32s into a fresh heap slice — the
// portable path for hosts where views are unusable, and for staging
// copies that must not alias the mapping.
func DecodeF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// DecodeU16 decodes little-endian uint16s into a fresh heap slice.
func DecodeU16(b []byte) []uint16 {
	out := make([]uint16, len(b)/2)
	for i := range out {
		out[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
	return out
}

func float32frombits(u uint32) float32 { return *(*float32)(unsafe.Pointer(&u)) }
