package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// latencyStack builds the Fig. 8a-style E2E latency stack for one run:
// P50 of each main-shard component across requests, normalized later by
// the group.
func latencyStack(label string, bs []trace.RequestBreakdown) *stats.Stack {
	st := stats.NewStack(label)
	st.Set("Dense Ops", componentQuantile(bs, trace.CompDenseOps, 0.5))
	st.Set("Embedded Portion", componentQuantile(bs, trace.CompEmbedded, 0.5))
	st.Set("RPC Ser/De", componentQuantile(bs, trace.CompMainSerDe, 0.5))
	st.Set("RPC Service Function", componentQuantile(bs, trace.CompMainService, 0.5))
	st.Set("Net Overhead", componentQuantile(bs, trace.CompMainNetOverhead, 0.5))
	return st
}

// embeddedStack builds the Fig. 8b-style embedded-portion stack: the
// attribution inside the bounding sparse shard request. Singular runs
// have only local sparse op time.
func embeddedStack(label string, bs []trace.RequestBreakdown) *stats.Stack {
	st := stats.NewStack(label)
	distributed := false
	for i := range bs {
		if bs[i].RPCCalls > 0 {
			distributed = true
			break
		}
	}
	if !distributed {
		st.Set("Sparse Ops", componentQuantile(bs, trace.CompEmbedded, 0.5))
		return st
	}
	st.Set("Sparse Ops", componentQuantile(bs, trace.CompBoundSparseOps, 0.5))
	st.Set("RPC Ser/De", componentQuantile(bs, trace.CompBoundSerDe, 0.5))
	st.Set("RPC Service Function", componentQuantile(bs, trace.CompBoundService, 0.5))
	st.Set("Net Overhead", componentQuantile(bs, trace.CompBoundNetOh, 0.5))
	st.Set("Network Latency", componentQuantile(bs, trace.CompBoundNetwork, 0.5))
	return st
}

// cpuStack builds the Fig. 9-style aggregate CPU stack (all shards).
func cpuStack(label string, bs []trace.RequestBreakdown) *stats.Stack {
	st := stats.NewStack(label)
	st.Set("Caffe2 Ops", componentQuantile(bs, func(b *trace.RequestBreakdown) time.Duration { return b.CPUOps }, 0.5))
	st.Set("RPC Ser/De", componentQuantile(bs, func(b *trace.RequestBreakdown) time.Duration { return b.CPUSerDe }, 0.5))
	st.Set("Service Overhead", componentQuantile(bs, func(b *trace.RequestBreakdown) time.Duration { return b.CPUService }, 0.5))
	return st
}

// stackView is one stack group of a figure: its title (taking the model
// name) and how a run's breakdowns reduce to one stack in it.
type stackView struct {
	title string
	build func(label string, bs []trace.RequestBreakdown) *stats.Stack
}

// arm is one measurement mode a figure shows per configuration.
type arm struct {
	suffix string
	mode   runMode
}

var (
	defaultArm = []arm{{"", runMode{}}}
	// batchArms contrasts the default batch size with the whole request
	// in one batch (Section VI-F).
	batchArms = []arm{{"", runMode{}}, {" [1batch]", runMode{batchOverride: 1 << 20}}}
)

// stackFigure renders, per model, each view's stacks over every
// configuration × arm.
func (r *Runner) stackFigure(w io.Writer, models []string, arms []arm, views ...stackView) error {
	for _, name := range models {
		plans, err := r.Plans(name)
		if err != nil {
			return err
		}
		groups := make([]*stats.StackGroup, len(views))
		for i, v := range views {
			groups[i] = stats.NewStackGroup(fmt.Sprintf(v.title, name))
		}
		for _, p := range plans {
			for _, a := range arms {
				res, err := r.Run(name, p, a.mode)
				if err != nil {
					return err
				}
				for i, v := range views {
					groups[i].Append(v.build(p.Name()+a.suffix, res.breakdowns))
				}
			}
		}
		for _, g := range groups {
			fmt.Fprint(w, g.Render())
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig8 renders the P50 latency attribution by sharding strategy for all
// three models: the full E2E stack (8a) and the embedded-portion stack of
// the bounding shard (8b).
//
// Paper shapes: only the embedded portion changes materially across
// configurations; network latency exceeds sparse-operator time on every
// distributed config; DRM1's embedded portion is ~10% of E2E singular
// and ~32% at 1-shard.
func (r *Runner) Fig8(w io.Writer) error {
	writeHeader(w, "Fig. 8 — P50 latency attribution by sharding configuration")
	return r.stackFigure(w, []string{"DRM1", "DRM2", "DRM3"}, defaultArm,
		stackView{"%s — 8a: E2E latency stack (normalized)", latencyStack},
		stackView{"%s — 8b: embedded-portion stack (normalized)", embeddedStack})
}

// Fig9 renders the P50 aggregate CPU time stack (all shards) per
// configuration: compute overhead is proportional to RPC ops issued, and
// NSBP has the least because each shard serves one net.
func (r *Runner) Fig9(w io.Writer) error {
	writeHeader(w, "Fig. 9 — P50 aggregate CPU time by sharding configuration")
	return r.stackFigure(w, []string{"DRM1", "DRM2", "DRM3"}, defaultArm,
		stackView{"%s — CPU time stack (normalized, all shards)", cpuStack})
}

// Fig13 contrasts default-batch and single-batch latency stacks for DRM1
// and DRM2 (Section VI-F): with the whole request in one batch, sparse
// operators have enough work for 8-shard configurations to beat singular.
func (r *Runner) Fig13(w io.Writer) error {
	writeHeader(w, "Fig. 13 — Latency stacks: default vs single batch (DRM1, DRM2)")
	return r.stackFigure(w, []string{"DRM1", "DRM2"}, batchArms,
		stackView{"%s — E2E latency stacks", latencyStack},
		stackView{"%s — embedded-portion stacks", embeddedStack})
}

// Fig14 contrasts default-batch and single-batch CPU stacks: each batch
// issues its own RPC ops, so compute overhead is multiplicative in batch
// count and single-batch shrinks the marginal cost of sharding.
func (r *Runner) Fig14(w io.Writer) error {
	writeHeader(w, "Fig. 14 — CPU stacks: default vs single batch (DRM1, DRM2)")
	return r.stackFigure(w, []string{"DRM1", "DRM2"}, batchArms,
		stackView{"%s — CPU stacks (all shards)", cpuStack})
}
