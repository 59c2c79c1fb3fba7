package tensor

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
)

// Kernel dispatch: every hot arithmetic loop in the tree (the GEMM
// kernel here, the quantized row decode in internal/quant) exists in
// two implementations — a portable generic kernel and a
// hand-vectorized one — selected through this table. The
// contract that makes swapping them safe is bitwise identity: a
// vectorized kernel keeps the generic kernel's per-element accumulation
// order and zero-skip semantics exactly, so dispatch never changes
// scores, only wall clock. The differential harness in
// internal/kerneltest (plus the in-package property tests and the quant
// fuzz targets) is what proves that, and CI runs the full kernel-package
// suite once per forced setting so neither path can rot.

// Kernel names one dispatchable implementation family.
type Kernel int32

const (
	// KernelAuto resolves to the vectorized kernels when the host
	// supports them and the generic ones otherwise. The default.
	KernelAuto Kernel = iota
	// KernelGeneric forces the portable reference kernels everywhere.
	KernelGeneric
	// KernelVector requests the hand-vectorized kernels (register-tiled
	// GEMM, SIMD row decode). On hosts where the vector
	// kernels are ineligible it resolves to KernelGeneric — forcing
	// a kernel never makes results wrong, at worst slower.
	KernelVector
)

// String implements fmt.Stringer for diagnostics and flag echoing.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelGeneric:
		return "generic"
	case KernelVector:
		return "vector"
	default:
		return fmt.Sprintf("Kernel(%d)", int32(k))
	}
}

// KernelFromString parses a kernel name as accepted by the REPRO_KERNEL
// environment variable.
func KernelFromString(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "generic", "scalar":
		return KernelGeneric, nil
	case "vector":
		return KernelVector, nil
	default:
		return KernelAuto, fmt.Errorf("tensor: unknown kernel %q (want auto, generic, or vector)", s)
	}
}

// kernelCfg holds the configured (not yet resolved) kernel selection.
var kernelCfg atomic.Int32

// vectorEligible reports whether the hand-vectorized kernels may run on
// this host: they are amd64 assembly, so elsewhere dispatch resolves to
// the generic kernels.
const vectorEligible = runtime.GOARCH == "amd64"

// VectorSupported reports whether the vectorized kernels are eligible on
// this host (independent of the configured selection).
func VectorSupported() bool { return vectorEligible }

// SetKernel selects the kernel family for every dispatched hot loop.
// KernelAuto restores the default. The selection is process-wide and
// results are bitwise identical at every setting.
func SetKernel(k Kernel) {
	switch k {
	case KernelAuto, KernelGeneric, KernelVector:
		kernelCfg.Store(int32(k))
	default:
		kernelCfg.Store(int32(KernelAuto))
	}
}

// ConfiguredKernel reports the requested selection, before host
// eligibility resolution.
func ConfiguredKernel() Kernel { return Kernel(kernelCfg.Load()) }

// ActiveKernel resolves the configured selection against host
// eligibility: the value actually consulted by the hot loops. It only
// ever returns KernelGeneric or KernelVector.
func ActiveKernel() Kernel {
	switch Kernel(kernelCfg.Load()) {
	case KernelGeneric:
		return KernelGeneric
	case KernelVector, KernelAuto:
		if vectorEligible {
			return KernelVector
		}
		return KernelGeneric
	}
	return KernelGeneric
}

// init seeds the dispatch table from REPRO_KERNEL so any deployment (and
// the CI dispatch matrix) can force either path without code changes.
// Unknown values fall back to auto rather than failing startup: the env
// override is an operational knob, not a correctness gate.
func init() {
	if k, err := KernelFromString(os.Getenv("REPRO_KERNEL")); err == nil {
		SetKernel(k)
	}
}
