package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig3 reproduces the paper's example distributed trace: one request
// against a 2-shard load-balanced DRM1 deployment, rendered as the
// shard-sliced timeline of Fig. 3. "All inference requests are forwarded
// to the main shard, which then invokes sparse shards when an RPC
// operator is encountered" — the asynchronous calls are visible as
// windows under the main shard's dense operators, and the sparse shards'
// spans sit inside those windows after skew realignment.
func (r *Runner) Fig3(w io.Writer) error {
	writeHeader(w, "Fig. 3 — Example trace of distributed inference (DRM1, load-bal 2 shards)")
	m, plan, err := r.drm1LoadBalanced(2)
	if err != nil {
		return err
	}
	// Deliberate clock skew proves the visualizer's realignment.
	gen := workload.NewGenerator(m.Config, r.P.Seed)
	s, err := r.deploy(m, plan, cluster.Options{PaperSchedule: true, ClockSkew: true}, gen.GenerateBatch(3))
	if err != nil {
		return err
	}
	defer s.Close()
	if _, err := s.replay(gen.GenerateBatch(1), 0); err != nil {
		return err
	}
	_, spans, err := s.breakdowns()
	if err != nil {
		return err
	}
	// The replayer allocates trace ids from 1; after reset the measured
	// request is the highest id present.
	var traceID uint64
	for _, sp := range spans {
		traceID = max(traceID, sp.TraceID)
	}
	tl, err := trace.BuildTimeline(spans, traceID, "main")
	if err != nil {
		return err
	}
	fmt.Fprint(w, tl.Render(96))
	fmt.Fprintln(w, "\nlegend: = operator   ~ ser/de   > RPC outstanding window   - request/service   . net overhead")
	return nil
}
