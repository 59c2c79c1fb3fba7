package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fresh evaluates the model-freshness machinery end to end: a DRM1
// deployment boots from persistent v2 shard files (mmap-backed tables,
// no regeneration) and then takes versioned row-delta publishes while
// serving. Part one compares the two boot paths for time and score
// identity; part two sweeps publish rate against request rate, reporting
// the latency impact, the freshness lag, and — because the published
// deltas are identity rows — byte-identity of every score across update
// epochs.
func (r *Runner) Fresh(w io.Writer) error {
	writeHeader(w, "Model freshness: persistent shard tables + delta publishing (DRM1, load-bal 4 shards, int8 cold tier)")
	m := r.Model("DRM1")
	cfg := m.Config
	plan, err := sharding.LoadBalanced(&cfg, 4, r.Pooling("DRM1"))
	if err != nil {
		return err
	}
	tier := &core.TierConfig{
		Plan: sharding.PlanTiers(&cfg, sharding.TierOptions{ColdPrecision: sharding.PrecisionInt8}),
	}
	n := r.P.Requests

	// ---- Part 1: boot from persistent shard files vs regeneration ----
	dir, err := os.MkdirTemp("", "fresh-shards-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	exportStart := time.Now()
	var fileBytes int64
	for shard := 1; shard <= plan.NumShards; shard++ {
		path := core.ShardFilePath(dir, cfg.Name, shard)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := core.ExportShardV2(m, plan, shard, f, tier.Plan); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		fileBytes += st.Size()
	}
	exportDur := time.Since(exportStart)

	boot := func(shardDir string, reg *obs.Registry) (*cluster.Cluster, *serve.Replayer, func(), time.Duration, error) {
		t0 := time.Now()
		cl, err := cluster.Boot(m, plan, cluster.Options{Seed: r.P.Seed, Tier: tier, ShardDir: shardDir, Obs: reg})
		bootDur := time.Since(t0)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		client, err := cl.DialMain()
		if err != nil {
			cl.Close()
			return nil, nil, nil, 0, err
		}
		stop := func() { client.Close(); cl.Close() }
		return cl, serve.NewReplayer(client), stop, bootDur, nil
	}

	stream := workload.NewGenerator(cfg, r.P.Seed+31).GenerateBatch(n)
	_, repRegen, stopRegen, regenDur, err := boot("", nil)
	if err != nil {
		return err
	}
	wantScores, res := repRegen.RunSerialScored(stream)
	stopRegen()
	if res.Failed() > 0 {
		return fmt.Errorf("fresh regen replay: %v", res.Errors[0])
	}
	_, repMmap, stopMmap, mmapDur, err := boot(dir, nil)
	if err != nil {
		return err
	}
	gotScores, res := repMmap.RunSerialScored(stream)
	stopMmap()
	if res.Failed() > 0 {
		return fmt.Errorf("fresh mmap replay: %v", res.Errors[0])
	}
	bootVerdict := "byte-identical"
	if !scoresEqual(wantScores, gotScores) {
		bootVerdict = "MISMATCH"
	}
	fmt.Fprintf(w, "shard files: %d files, %.1f MiB, exported in %v\n",
		plan.NumShards, float64(fileBytes)/(1<<20), exportDur.Round(time.Millisecond))
	fmt.Fprintf(w, "boot: regenerate %v  vs  shard-file mmap %v  (%.1fx)\n",
		regenDur.Round(time.Millisecond), mmapDur.Round(time.Millisecond),
		float64(regenDur)/float64(mmapDur))
	fmt.Fprintf(w, "scores across boot paths: %s over %d requests\n\n", bootVerdict, n)

	// ---- Part 2: publish rate x request rate ----
	// Identity deltas republish currently-served rows, so any score drift
	// across the version cutovers is a bug; the interesting outputs are
	// the serving-latency impact and the freshness cadence sustained.
	fmt.Fprintf(w, "%-12s %-8s %-9s %-9s %-10s %-10s %-10s %-6s %s\n",
		"publish", "qps", "e2e p50", "e2e p99", "versions", "rows/pub", "pub mean", "lag", "scores")
	intervals := []time.Duration{0, 20 * time.Millisecond, 5 * time.Millisecond}
	for _, qps := range []float64{100, 400} {
		for _, every := range intervals {
			cell, err := r.freshCell(m, plan, tier, dir, stream, wantScores, every, qps)
			if err != nil {
				return fmt.Errorf("fresh publish %v qps %g: %w", every, qps, err)
			}
			label := "off"
			if every > 0 {
				label = every.String()
			}
			fmt.Fprintf(w, "%-12s %-8g %-9s %-9s %-10d %-10d %-10s %-6d %s\n",
				label, qps,
				fmt.Sprintf("%.2fms", cell.p50*1e3), fmt.Sprintf("%.2fms", cell.p99*1e3),
				cell.versions, cell.rowsPerPub,
				fmt.Sprintf("%.2fms", cell.pubMeanMs), cell.lag, cell.verdict)
		}
	}
	fmt.Fprintln(w, "\nReading: the mmap boot serves the same bytes the regenerating boot\nencodes, in a fraction of the time — the encode cost was paid once at\nexport. Publishing rides the serving path: row deltas stage on table\nclones and cut over atomically, so even a publish every few\nmilliseconds leaves every score byte-identical while the deployment's\nmodel version climbs; the latency tax shows up in the p99 column and\nthe freshness lag stays zero once the last publish commits.")
	return nil
}

type freshCell struct {
	p50, p99   float64
	versions   uint64
	rowsPerPub int
	pubMeanMs  float64
	lag        int64
	verdict    string
}

// freshCell measures one (publish interval, qps) cell: an open-loop
// replay against a shard-file-booted deployment while a publisher
// goroutine streams identity deltas at the given cadence.
func (r *Runner) freshCell(m *model.Model, plan *sharding.Plan, tier *core.TierConfig, dir string, stream []*workload.Request, want [][]float32, every time.Duration, qps float64) (*freshCell, error) {
	reg := obs.NewRegistry()
	cl, err := cluster.Boot(m, plan, cluster.Options{Seed: r.P.Seed, Tier: tier, ShardDir: dir, Obs: reg})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	client, err := cl.DialMain()
	if err != nil {
		return nil, err
	}
	defer client.Close()
	rep := serve.NewReplayer(client)
	if warm := rep.RunSerial(stream[:r.P.Warmup]); warm.Failed() > 0 {
		return nil, warm.Errors[0]
	}

	const rowsPer = 64
	cell := &freshCell{rowsPerPub: rowsPer * len(deltaTables(plan))}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var pubDur time.Duration
	var pubErr error
	if every > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(every)
			defer ticker.Stop()
			version := uint64(0)
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					version++
					t0 := time.Now()
					if _, err := cl.Publish(core.IdentityDelta(m, deltaTables(plan), version, rowsPer)); err != nil {
						pubErr = err
						return
					}
					pubDur += time.Since(t0)
					cell.versions = version
				}
			}
		}()
	}
	res := rep.RunOpenLoop(stream, qps)
	close(stop)
	wg.Wait()
	if pubErr != nil {
		return nil, pubErr
	}
	if res.Failed() > 0 {
		return nil, res.Errors[0]
	}
	sample := stats.NewDurationSample(res.ClientE2E)
	cell.p50, cell.p99 = sample.P50(), sample.Quantile(0.99)
	if cell.versions > 0 {
		cell.pubMeanMs = pubDur.Seconds() * 1e3 / float64(cell.versions)
	}
	cell.lag = reg.Snapshot().Gauge("publish.lag")

	// Inter-epoch byte identity: the post-sweep deployment, having cut
	// over up to `versions` epochs, must still score the stream exactly
	// as the never-published control did.
	got, sres := rep.RunSerialScored(stream)
	if sres.Failed() > 0 {
		return nil, sres.Errors[0]
	}
	cell.verdict = "identical"
	if !scoresEqual(want, got) {
		cell.verdict = "MISMATCH"
	}
	return cell, nil
}

// deltaTables picks one table per shard — enough to touch every shard's
// update path without flooding the control plane.
func deltaTables(plan *sharding.Plan) []int {
	var ids []int
	for si := range plan.Shards {
		a := &plan.Shards[si]
		if len(a.Tables) > 0 {
			ids = append(ids, a.Tables[0])
		} else if len(a.Parts) > 0 {
			ids = append(ids, a.Parts[0].TableID)
		}
	}
	return ids
}

// scoresEqual compares two score sets bitwise.
func scoresEqual(want, got [][]float32) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return false
		}
		for j := range want[i] {
			if math.Float32bits(want[i][j]) != math.Float32bits(got[i][j]) {
				return false
			}
		}
	}
	return true
}
