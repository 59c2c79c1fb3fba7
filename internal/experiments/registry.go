package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the CLI name ("fig6", "tab2").
	ID string
	// Title describes the artifact.
	Title string
	// Run renders the experiment to w.
	Run func(r *Runner, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Historical model growth", func(r *Runner, w io.Writer) error { return r.Fig1(w) }},
		{"fig3", "Example distributed trace", func(r *Runner, w io.Writer) error { return r.Fig3(w) }},
		{"fig4", "Operator compute attribution", func(r *Runner, w io.Writer) error { return r.Fig4(w) }},
		{"fig5", "Embedding table size distribution", func(r *Runner, w io.Writer) error { return r.Fig5(w) }},
		{"tab2", "Sharding results for DRM1", func(r *Runner, w io.Writer) error { return r.Table2(w) }},
		{"fig6", "Latency/compute overheads, DRM1+DRM2", func(r *Runner, w io.Writer) error { return r.Fig6(w) }},
		{"fig7", "Latency/compute overheads, DRM3", func(r *Runner, w io.Writer) error { return r.Fig7(w) }},
		{"fig8", "P50 latency attribution stacks", func(r *Runner, w io.Writer) error { return r.Fig8(w) }},
		{"fig9", "P50 aggregate CPU stacks", func(r *Runner, w io.Writer) error { return r.Fig9(w) }},
		{"fig10", "DRM1 per-shard latency by net", func(r *Runner, w io.Writer) error { return r.Fig10(w) }},
		{"fig11", "DRM3 per-shard latency + embedded stacks", func(r *Runner, w io.Writer) error { return r.Fig11(w) }},
		{"fig12", "DRM1 per-shard latency by strategy", func(r *Runner, w io.Writer) error { return r.Fig12(w) }},
		{"fig13", "Batching latency stacks", func(r *Runner, w io.Writer) error { return r.Fig13(w) }},
		{"fig14", "Batching CPU stacks", func(r *Runner, w io.Writer) error { return r.Fig14(w) }},
		{"fig15", "Platform efficiency (SC-Small vs SC-Large)", func(r *Runner, w io.Writer) error { return r.Fig15(w) }},
		{"fig16", "High-QPS overheads, DRM1", func(r *Runner, w io.Writer) error { return r.Fig16(w) }},
		{"tab3", "Quantization and pruning on DRM1", func(r *Runner, w io.Writer) error { return r.Table3(w) }},
		{"repl", "Replication economics (§VII-C)", func(r *Runner, w io.Writer) error { return r.Replication(w) }},
		{"front", "SLA serving frontier (batch window × QPS)", func(r *Runner, w io.Writer) error { return r.Frontier(w) }},
		{"reshard", "Online resharding under load drift (skew × move budget)", func(r *Runner, w io.Writer) error { return r.Reshard(w) }},
		{"tiered", "Tiered embedding storage (cache × precision × skew)", func(r *Runner, w io.Writer) error { return r.Tiered(w) }},
		{"fault", "Fault tolerance (replica kills × count × hedge delay, SLA + rebuild)", func(r *Runner, w io.Writer) error { return r.Fault(w) }},
		{"fresh", "Online model freshness (update rate × QPS, mmap boot, byte identity)", func(r *Runner, w io.Writer) error { return r.Fresh(w) }},
	}
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (want one of %v)", id, ids)
}
