package mmapfile

import (
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeFloats writes vals little-endian after `pad` junk bytes, with
// `trail` extra bytes after the last whole value, and returns the path.
func writeFloats(t *testing.T, pad, trail int, vals ...float32) string {
	t.Helper()
	buf := make([]byte, pad, pad+4*len(vals)+trail)
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	for i := 0; i < trail; i++ {
		buf = append(buf, 0xee)
	}
	path := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMapsFileContents(t *testing.T) {
	want := []float32{1.5, -2, 0, float32(math.Inf(1))}
	f, err := Open(writeFloats(t, 0, 0, want...))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if len(f.Bytes()) != 16 {
		t.Fatalf("len(Bytes) = %d, want 16", len(f.Bytes()))
	}
	t.Logf("mapped: %v", f.Mapped())
	got := DecodeF32(f.Bytes())
	if ViewsUsable() {
		// A mapping is page-aligned, so offset 0 is a legal view.
		got = Float32s(f.Bytes())
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Errorf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("Open of a missing file succeeded")
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := Open(empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Bytes()) != 0 || f.Mapped() {
		t.Errorf("empty file: %d bytes, mapped=%v", len(f.Bytes()), f.Mapped())
	}
	if Float32s(f.Bytes()) != nil || Uint16s(f.Bytes()) != nil {
		t.Error("view of no bytes is not nil")
	}
	if err := f.Close(); err != nil {
		t.Error(err)
	}
}

// TestTruncatedFile pins what a file cut short mid-value decodes to:
// the whole values before the cut, never a value assembled from bytes
// that are not there.
func TestTruncatedFile(t *testing.T) {
	f, err := Open(writeFloats(t, 0, 3, 7, 9)) // two values and 3 of a third's 4 bytes
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := f.Bytes()
	if len(b) != 11 {
		t.Fatalf("len(Bytes) = %d, want 11", len(b))
	}
	if got := DecodeF32(b); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("DecodeF32 = %v, want [7 9]", got)
	}
	if got := DecodeU16(b); len(got) != 5 {
		t.Errorf("DecodeU16 decoded %d values from 11 bytes, want 5", len(got))
	}
	if ViewsUsable() {
		if got := Float32s(b); len(got) != 2 || got[0] != 7 || got[1] != 9 {
			t.Errorf("Float32s = %v, want [7 9]", got)
		}
		if got := Uint16s(b); len(got) != 5 {
			t.Errorf("Uint16s viewed %d values over 11 bytes, want 5", len(got))
		}
		if got := Float32s(b[:3]); len(got) != 0 {
			t.Errorf("Float32s of 3 bytes has %d values", len(got))
		}
	}
}

// TestUnalignedSectionOffset: a section that starts at an odd byte
// offset is not a legal view (Float32s requires 4-byte alignment), and
// the decode path is what a caller uses instead — it must read the same
// values at any offset, and agree with the view wherever the view is
// legal.
func TestUnalignedSectionOffset(t *testing.T) {
	want := []float32{3.25, -0.5, 1e-40, 65504}
	for _, pad := range []int{0, 1, 2, 3, 4, 5} {
		f, err := Open(writeFloats(t, pad, 0, want...))
		if err != nil {
			t.Fatal(err)
		}
		sec := f.Bytes()[pad:]
		got := DecodeF32(sec)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Errorf("pad %d: DecodeF32[%d] = %v, want %v", pad, i, got[i], want[i])
			}
		}
		halves := DecodeU16(sec)
		if lo := binary.LittleEndian.Uint16(sec); len(halves) != 8 || halves[0] != lo {
			t.Errorf("pad %d: DecodeU16[0] = %#x over %d values, want %#x over 8", pad, halves[0], len(halves), lo)
		}
		if ViewsUsable() && pad%4 == 0 {
			view := Float32s(sec)
			for i := range want {
				if math.Float32bits(view[i]) != math.Float32bits(got[i]) {
					t.Errorf("pad %d: view[%d] = %v, decode says %v", pad, i, view[i], got[i])
				}
			}
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	}
}

// viewSink keeps the crash child's read alive.
var viewSink float32

// TestViewAfterCloseFaults: Close unmaps, so a view kept past it must
// fault rather than read whatever is mapped there next — and a decoded
// copy must survive. The fault is observed in a child process. Close
// twice is harmless.
func TestViewAfterCloseFaults(t *testing.T) {
	if path := os.Getenv("MMAPFILE_VIEW_AFTER_CLOSE"); path != "" {
		f, err := Open(path)
		if err != nil || !f.Mapped() {
			os.Exit(3) // nothing to fault on: the parent skips
		}
		view := Float32s(f.Bytes())
		if err := f.Close(); err != nil {
			os.Exit(4)
		}
		viewSink = view[0]
		os.Exit(0) // unreachable if Close unmapped
	}
	path := writeFloats(t, 0, 0, 11, 22)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	copied := DecodeF32(f.Bytes())
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Bytes() != nil || f.Mapped() {
		t.Errorf("after Close: %d bytes, mapped=%v", len(f.Bytes()), f.Mapped())
	}
	if err := f.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if copied[0] != 11 || copied[1] != 22 {
		t.Errorf("decoded copy changed after Close: %v", copied)
	}
	if !ViewsUsable() {
		t.Skip("views unusable on this host")
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestViewAfterCloseFaults$")
	cmd.Env = append(os.Environ(), "MMAPFILE_VIEW_AFTER_CLOSE="+path)
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() == 3 {
		t.Skip("file was not mapped (heap fallback): no unmap to observe")
	}
	if err == nil {
		t.Fatalf("read through a view after Close did not fault:\n%s", out)
	}
	if s := string(out); !strings.Contains(s, "SIGSEGV") && !strings.Contains(s, "fault") {
		t.Fatalf("child died but not from the unmapped view: %v\n%s", err, s)
	}
}

// TestAnonRegion: an anonymous region is zeroed, writable and holds what
// is written until Close; a non-positive size maps nothing.
func TestAnonRegion(t *testing.T) {
	size := os.Getpagesize() + 12
	r := Anon(size)
	t.Logf("mapped: %v", r.Mapped())
	b := r.Bytes()
	if len(b) != size {
		t.Fatalf("len(Bytes) = %d, want %d", len(b), size)
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, v)
		}
	}
	vals := Float32s(b)
	vals[0], vals[len(vals)-1] = 1.5, -2
	if got := DecodeF32(b); got[0] != 1.5 || got[len(got)-1] != -2 {
		t.Errorf("values written through a view read back as %v, %v", got[0], got[len(got)-1])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Bytes() != nil || r.Mapped() {
		t.Errorf("after Close: %d bytes, mapped=%v", len(r.Bytes()), r.Mapped())
	}
	for _, n := range []int{0, -1} {
		if e := Anon(n); len(e.Bytes()) != 0 || e.Mapped() {
			t.Errorf("Anon(%d): %d bytes, mapped=%v", n, len(e.Bytes()), e.Mapped())
		}
	}
}
