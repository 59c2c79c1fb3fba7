package kerneltest

import (
	"fmt"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/tensor"
)

// gemmLanes is internal/tensor's register-tile lane width (16, 8, or 0
// for the Go fallback), probed from the host at init. It is unexported
// there — not an operator knob — and reached from this test binary only,
// so the sweeps can run the narrower widths on a wide host.
//
//go:linkname gemmLanes repro/internal/tensor.gemmLanes
var gemmLanes int

// hostLanes is the width the host probe chose, before any test forced
// another.
var hostLanes = gemmLanes

// dispatch is one kernel selection a differential test runs under: a
// kernel family and, for the vector family, the register-tile width.
type dispatch struct {
	kern  tensor.Kernel
	lanes int
}

func (d dispatch) String() string { return fmt.Sprintf("kern=%v lanes=%d", d.kern, d.lanes) }

// set applies d; resetDispatch undoes it.
func (d dispatch) set() {
	tensor.SetKernel(d.kern)
	gemmLanes = d.lanes
}

// dispatches returns every kernel selection this host can run: the
// generic family once (it has no lanes), and the vector family at each
// tile width the host supports — 16, 8, and 0, the Go fallback it uses
// where there is no assembly tile. It logs which widths will run and
// which the host lacks, so a skipped width is never a silent pass; CI
// reads the log line.
func dispatches(t *testing.T) []dispatch {
	t.Helper()
	ds := []dispatch{{tensor.KernelGeneric, hostLanes}}
	var ran, skipped []int
	for _, w := range []int{16, 8, 0} {
		if w > hostLanes {
			skipped = append(skipped, w)
			continue
		}
		ran = append(ran, w)
		ds = append(ds, dispatch{tensor.KernelVector, w})
	}
	t.Logf("register-tile lane widths exercised: %v; skipped (host lacks them): %v", ran, skipped)
	return ds
}
