package main

import (
	"time"

	"repro/internal/frontend"
)

// spec is one workload: a traffic mix and the deployment it is aimed at. The
// fields are frozen: a later change that wants another value adds a
// workload, it does not edit one.
type spec struct {
	name  string
	why   string
	model string
	// shards is the number of load-balanced sparse shards; 0 is the
	// singular plan (no sparse RPC at all).
	shards int
	// tiered serves an int8 cold tier behind an 8 MiB hot-row cache.
	tiered bool
	// zipf, when > 1, draws row IDs Zipf(zipf)-distributed, else uniform.
	zipf float64
	// front, when non-nil, fronts the main shard with the batching
	// frontend.
	front *frontend.Config
	// burst is how many requests the one closed-loop caller has in flight
	// together: it sends them back to back, waits for every answer, and
	// sends the next burst.
	burst int
	// mmap boots the sparse shards from v2 shard files.
	mmap bool
	// publishEvery > 0 runs a publisher beside the client.
	publishEvery time.Duration
	// limitMs is the latency a response must meet to count as goodput:
	// about 4x the seed's p50 on the 2-core reference host.
	limitMs float64
}

const (
	cacheMB      = 8  // hot-row cache budget of the tiered workload
	deltaRowsPer = 64 // rows republished per shard table per publish
)

// Variables only so that the smoke test can shrink them.
var (
	poolSize   = 500 // pre-encoded requests the generator cycles through
	warmupReqs = 100 // serial requests sent before the first timed one
)

var workloads = []spec{
	{
		name:    "serial_sparse",
		why:     "DRM1 on 4 load-balanced shards, 1 closed-loop client: sparse fan-out, rpc and codecs do the work; frontend and tier cache are bypassed",
		model:   "DRM1",
		shards:  4,
		burst:   1,
		limitMs: 24,
	},
	{
		name:    "serial_dense",
		why:     "DRM3 singular, 1 closed-loop client: dense GEMM and the main rpc hop only; sparse rpc, codecs, SLS and quant kernels are bypassed",
		model:   "DRM3",
		burst:   1,
		limitMs: 2.4,
	},
	{
		name:    "burst_front_skew",
		why:     "DRM2, int8 tier + 8 MiB cache, Zipf(1.2) rows, batching frontend, 1 closed-loop caller of 4-request bursts: coalescing, tier cache and int8 decode do the work",
		model:   "DRM2",
		shards:  4,
		tiered:  true,
		zipf:    1.2,
		front:   &frontend.Config{BatchWait: 2 * time.Millisecond},
		burst:   4,
		limitMs: 48,
	},
	{
		name:         "serve_publish",
		why:          "serial_sparse booted from mmap shard files with identity deltas published every 250 ms: the tax of sparse.update.* writes beside the read path",
		model:        "DRM1",
		shards:       4,
		mmap:         true,
		burst:        1,
		publishEvery: 250 * time.Millisecond,
		limitMs:      24,
	},
}

func workloadByName(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported number. bound is the share of the parent's
// median by which an end-to-end metric may worsen; layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
	bound  float64
}

// The bounds are measured, not chosen: over two sets of ten runs of
// unchanged code on the 2-core reference host (README.md, "Reference-host
// numbers") a timing's middle half spreads by 2-10% of its median in a quiet
// hour and up to 15% in a noisy one, and a median drifts up to 9% between the
// sets. Only heap_live_mb supports the issue's 0.10; the rest sit at the
// contract's cap.
var e2eMetrics = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"p50_ms", "ms", false, 0.25},
	{"p99_ms", "ms", false, 0.25},
	{"goodput_qps", "1/s", true, 0.25},
	{"cpu_ms_per_req", "ms", false, 0.25},
	{"heap_live_mb", "MiB", false, 0.10},
}

var layerMetrics = []metricDef{
	{name: "client.rtt_ms_mean", unit: "ms"},
	{name: "client.p99_whole_ms", unit: "ms"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "rpc.main.transport_ms_mean", unit: "ms"},
	{name: "rpc.echo_us_p50", unit: "us"},
	{name: "rpc.sparse.calls_per_req", unit: "count"},
	{name: "rpc.sparse.outstanding_ms_p50", unit: "ms"},
	{name: "rpc.sparse.outstanding_ms_p99", unit: "ms"},
	{name: "rpc.sparse.transport_ms_mean", unit: "ms"},
	{name: "rpc.sparse.req_kb_per_req", unit: "KiB"},
	{name: "rpc.sparse.resp_kb_per_req", unit: "KiB"},
	{name: "frontend.wait_ms_mean", unit: "ms"},
	{name: "frontend.wait_ms_p50", unit: "ms"},
	{name: "frontend.wait_ms_p99", unit: "ms"},
	{name: "frontend.batch_reqs_mean", unit: "count", higher: true},
	{name: "frontend.batch_items_mean", unit: "count", higher: true},
	{name: "frontend.exec_busy_pct", unit: "%"},
	{name: "frontend.shed_pct", unit: "%"},
	{name: "core.engine.exec_ms_p50", unit: "ms"},
	{name: "core.engine.exec_ms_p99", unit: "ms"},
	{name: "core.engine.self_ms_mean", unit: "ms"},
	{name: "core.engine.embedded_ms_mean", unit: "ms"},
	{name: "core.shard.handle_ms_p50", unit: "ms"},
	{name: "core.shard.handle_ms_p99", unit: "ms"},
	{name: "core.shard.bound_ms_mean", unit: "ms"},
	{name: "core.shard.busy_imbalance", unit: "ratio"},
	{name: "core.codec.rank_us_per_req", unit: "us"},
	{name: "core.codec.sparse_us_per_req", unit: "us"},
	{name: "core.codec.alloc_kb_per_req", unit: "KiB"},
	{name: "core.publish.ms_p50", unit: "ms"},
	{name: "core.publish.rows_per_s", unit: "1/s", higher: true},
	{name: "core.publish.versions", unit: "count", higher: true},
	{name: "embedding.lookups_per_req", unit: "count"},
	{name: "embedding.sls_us_per_klookup", unit: "us"},
	{name: "embedding.kb_read_per_req", unit: "KiB"},
	{name: "embedding.tier.hit_pct", unit: "%", higher: true},
	{name: "embedding.dup_lookup_pct", unit: "%"},
	{name: "embedding.resident_mb", unit: "MiB"},
	{name: "tensor.gemm_ms_per_req", unit: "ms"},
	{name: "tensor.gemm_gflops", unit: "GF/s", higher: true},
	{name: "cluster.boot_s", unit: "s"},
	{name: "model.build_s", unit: "s"},
	{name: "workload.gen_s", unit: "s"},
	{name: "core.shardfile.export_s", unit: "s"},
	{name: "proc.allocs_per_req", unit: "count"},
	{name: "proc.alloc_kb_per_req", unit: "KiB"},
	{name: "proc.gc_cycles", unit: "count"},
	{name: "proc.gc_pause_ms", unit: "ms"},
	{name: "proc.rss_peak_mb", unit: "MiB"},
	{name: "proc.goroutines_peak", unit: "count"},
}
