package tensor

import "testing"

// TestKernelFromString pins the flag/env vocabulary: auto, generic (with
// scalar as an alias), vector, and the empty default; anything else is
// an error that names the valid values.
func TestKernelFromString(t *testing.T) {
	cases := []struct {
		in   string
		want Kernel
		ok   bool
	}{
		{"", KernelAuto, true},
		{"auto", KernelAuto, true},
		{"generic", KernelGeneric, true},
		{"scalar", KernelGeneric, true},
		{"vector", KernelVector, true},
		{"avx", KernelAuto, false},
		{"VECTOR", KernelAuto, false},
	}
	for _, c := range cases {
		got, err := KernelFromString(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("KernelFromString(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestKernelDispatchResolution pins SetKernel/ActiveKernel semantics:
// forcing generic always resolves generic; vector and auto resolve to
// vector exactly when the host is eligible; invalid values reset to
// auto; and ActiveKernel never returns KernelAuto.
func TestKernelDispatchResolution(t *testing.T) {
	defer SetKernel(KernelAuto)

	SetKernel(KernelGeneric)
	if ConfiguredKernel() != KernelGeneric || ActiveKernel() != KernelGeneric {
		t.Errorf("forced generic: configured %v active %v", ConfiguredKernel(), ActiveKernel())
	}

	wantVec := KernelGeneric
	if VectorSupported() {
		wantVec = KernelVector
	}
	SetKernel(KernelVector)
	if ActiveKernel() != wantVec {
		t.Errorf("forced vector: active %v, want %v (supported=%v)", ActiveKernel(), wantVec, VectorSupported())
	}
	SetKernel(KernelAuto)
	if ActiveKernel() != wantVec {
		t.Errorf("auto: active %v, want %v", ActiveKernel(), wantVec)
	}

	SetKernel(Kernel(99))
	if ConfiguredKernel() != KernelAuto {
		t.Errorf("invalid kernel configured as %v, want auto", ConfiguredKernel())
	}
}

// TestKernelString covers the Stringer used in logs and test names.
func TestKernelString(t *testing.T) {
	for k, want := range map[Kernel]string{
		KernelAuto: "auto", KernelGeneric: "generic", KernelVector: "vector", Kernel(7): "Kernel(7)",
	} {
		if k.String() != want {
			t.Errorf("Kernel(%d).String() = %q, want %q", int32(k), k.String(), want)
		}
	}
}
