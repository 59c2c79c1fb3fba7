package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Table3 reproduces the compression experiment (Section VII-D): DRM1
// with production-style quantization (8-bit row-wise everywhere, 4-bit
// for sufficiently large tables) plus magnitude pruning, served singular,
// compared on total size, CPU time, and E2E latency quantiles normalized
// to the uncompressed P50.
//
// Paper shapes: ~5.56× smaller; latency and CPU within a few percent of
// uncompressed. The exact ratio here is bounded by the per-row fp16
// header at this reproduction's small embedding dimensions (see
// DESIGN.md "Experiments").
func (r *Runner) Table3(w io.Writer) error {
	writeHeader(w, "Table III — Quantization and pruning on DRM1 (singular)")
	m := r.Model("DRM1")
	// "Sufficiently large tables were quantized to 4 bits": threshold at
	// the paper-scale 1 GiB equivalent.
	compressed := m.Compress(1024*1024, 0.001)

	fmt.Fprintf(w, "%-18s %12s %12s\n", "", "Uncompressed", "Quant+Pruned")
	ratio := float64(m.TotalBytes()) / float64(compressed.TotalBytes())
	fmt.Fprintf(w, "%-18s %10.2fMB %10.2fMB  (%.2fx; paper: 5.56x)\n", "Total size",
		float64(m.TotalBytes())/(1<<20), float64(compressed.TotalBytes())/(1<<20), ratio)

	base, err := r.runCompressed(m, "uncompressed")
	if err != nil {
		return err
	}
	comp, err := r.runCompressed(compressed, "compressed")
	if err != nil {
		return err
	}
	baseCPU := quantilesOf(base, trace.CompTotalCPU)
	compCPU := quantilesOf(comp, trace.CompTotalCPU)
	baseE2E := quantilesOf(base, trace.CompE2E)
	compE2E := quantilesOf(comp, trace.CompE2E)
	// Normalize everything to the respective uncompressed P50 (the
	// paper's presentation).
	fmt.Fprintf(w, "%-18s %12s %12s\n", "CPU time", "", "")
	fmt.Fprintf(w, "  %-16s %11.2fx %11.2fx\n", "P50", 1.0, compCPU.P50/baseCPU.P50)
	fmt.Fprintf(w, "  %-16s %11.2fx %11.2fx\n", "P90", baseCPU.P90/baseCPU.P50, compCPU.P90/baseCPU.P50)
	fmt.Fprintf(w, "  %-16s %11.2fx %11.2fx\n", "P99", baseCPU.P99/baseCPU.P50, compCPU.P99/baseCPU.P50)
	fmt.Fprintf(w, "%-18s %12s %12s\n", "E2E latency", "", "")
	fmt.Fprintf(w, "  %-16s %11.2fx %11.2fx\n", "P50", 1.0, compE2E.P50/baseE2E.P50)
	fmt.Fprintf(w, "  %-16s %11.2fx %11.2fx\n", "P90", baseE2E.P90/baseE2E.P50, compE2E.P90/baseE2E.P50)
	fmt.Fprintf(w, "  %-16s %11.2fx %11.2fx\n", "P99", baseE2E.P99/baseE2E.P50, compE2E.P99/baseE2E.P50)
	fmt.Fprintln(w, "\npaper: compression alone cannot fit emerging models on 1-4 commodity servers;")
	fmt.Fprintf(w, "here: compressed sparse bytes %.1fMB vs ~50MB usable DRAM per commodity server (1024x-scaled ~50GB)\n",
		float64(compressed.SparseTableBytes())/(1<<20))
	return nil
}

// runCompressed measures a singular deployment of the given model
// build; unlike Runner.Run it does not memoize (the compressed model is
// not part of the standard sweep).
func (r *Runner) runCompressed(m *model.Model, label string) ([]trace.RequestBreakdown, error) {
	gen := workload.NewGenerator(m.Config, r.P.Seed)
	s, err := r.deploy(m, sharding.Singular(&m.Config), cluster.Options{}, gen.GenerateBatch(r.P.Warmup))
	if err != nil {
		return nil, fmt.Errorf("experiments: table3 %s: %w", label, err)
	}
	defer s.Close()
	_, bs, err := s.replayTraced(gen.GenerateBatch(r.P.Requests), 0)
	return bs, err
}
