package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sharding"
	"repro/internal/stats"
	"repro/internal/workload"
)

// freshCell is one cell of the sweep: how often identity deltas are
// published (0 = never) while requests arrive open loop at qps.
type freshCell struct {
	every time.Duration
	qps   float64
}

var freshGrid = []freshCell{
	{0, 100}, {20 * time.Millisecond, 100}, {5 * time.Millisecond, 100},
	{0, 400}, {20 * time.Millisecond, 400}, {5 * time.Millisecond, 400},
}

type freshRow struct {
	freshCell
	p50, p99   float64
	versions   uint64
	rowsPerPub int
	pubMeanMs  float64
	lag        int64
}

type freshResult struct {
	files, n                     int
	fileBytes                    int64
	exportDur, regenDur, mmapDur time.Duration
	rows                         []freshRow
	verdicts
}

// Fresh evaluates the model-freshness machinery end to end: a DRM1
// deployment boots from persistent v2 shard files (mmap-backed tables,
// no regeneration) and then takes versioned row-delta publishes while
// serving. Part one compares the two boot paths for time and score
// identity; part two sweeps publish rate against request rate, reporting
// the latency impact, the freshness lag, and — because the published
// deltas are identity rows — byte-identity of every score across update
// epochs.
func (r *Runner) Fresh(w io.Writer) error {
	res, err := r.measureFresh(freshGrid)
	return r.present(w, "fresh", res, err)
}

func (r *Runner) measureFresh(cells []freshCell) (*freshResult, error) {
	m, plan, err := r.drm1LoadBalanced(4)
	if err != nil {
		return nil, err
	}
	cfg := m.Config
	tier := &core.TierConfig{Plan: tierPlan(&cfg, sharding.PrecisionInt8)}
	stream := workload.NewGenerator(cfg, r.P.Seed+31).GenerateBatch(r.P.Requests)
	res := &freshResult{files: plan.NumShards, n: len(stream)}

	// ---- Part 1: boot from persistent shard files vs regeneration ----
	dir, err := os.MkdirTemp("", "fresh-shards-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	exportStart := time.Now()
	if res.fileBytes, err = exportShards(m, plan, tier.Plan, dir); err != nil {
		return nil, err
	}
	res.exportDur = time.Since(exportStart)

	// The regenerating boot is the control: every other deployment here
	// boots from the files and must score the stream exactly as it did.
	ctl, err := r.control("fresh", m, plan, cluster.Options{Tier: tier}, nil, stream)
	if err != nil {
		return nil, err
	}
	res.regenDur = ctl.boot
	mapped, err := r.deploy(m, plan, cluster.Options{Tier: tier, ShardDir: dir}, nil)
	if err != nil {
		return nil, fmt.Errorf("fresh mmap boot: %w", err)
	}
	res.mmapDur = mapped.boot
	p, err := mapped.replay(stream, 0)
	mapped.Close()
	if err == nil {
		err = sameScores(ctl.scores, p.scores)
	}
	if err != nil {
		return nil, fmt.Errorf("fresh mmap boot: %w", err)
	}
	res.claim("the shard-file boot serves the bytes the regenerating boot encodes", true, "byte-identical over %d requests", res.n)
	res.claim("and boots faster: the encode cost was paid once at export", res.mmapDur < res.regenDur,
		"regenerate %v vs mmap %v (%.1fx)", res.regenDur.Round(time.Millisecond), res.mmapDur.Round(time.Millisecond), float64(res.regenDur)/float64(res.mmapDur))

	// ---- Part 2: publish rate x request rate ----
	// Identity deltas republish currently-served rows, so any score drift
	// across the version cutovers is a bug; the interesting outputs are
	// the serving-latency impact and the freshness cadence sustained.
	// Each cell is an open-loop replay against a shard-file-booted
	// deployment while a publisher goroutine streams identity deltas.
	cell := func(c freshCell) (*freshRow, error) {
		reg := obs.NewRegistry()
		s, err := r.deploy(m, plan, cluster.Options{Tier: tier, ShardDir: dir, Obs: reg}, stream[:r.P.Warmup])
		if err != nil {
			return nil, err
		}
		defer s.Close()

		const rowsPer = 64
		row := &freshRow{freshCell: c, rowsPerPub: rowsPer * len(deltaTables(plan))}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var pubDur time.Duration
		var pubErr error
		if c.every > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ticker := time.NewTicker(c.every)
				defer ticker.Stop()
				for version := uint64(1); ; version++ {
					select {
					case <-stop:
						return
					case <-ticker.C:
					}
					t0 := time.Now()
					if _, err := s.cl.Publish(core.IdentityDelta(&m.Config, deltaTables(plan), version, rowsPer)); err != nil {
						pubErr = err
						return
					}
					pubDur += time.Since(t0)
					row.versions = version
				}
			}()
		}
		p, err := s.replay(stream, c.qps)
		close(stop)
		wg.Wait()
		if err = errors.Join(pubErr, err); err != nil {
			return nil, err
		}
		sample := stats.NewDurationSample(p.ClientE2E)
		row.p50, row.p99 = sample.P50(), sample.Quantile(0.99)
		if row.versions > 0 {
			row.pubMeanMs = pubDur.Seconds() * 1e3 / float64(row.versions)
		}
		row.lag = reg.Snapshot().Gauge("publish.lag")

		// Inter-epoch byte identity: the post-sweep deployment, having cut
		// over up to `versions` epochs, must still score the stream exactly
		// as the never-published control did.
		scored, err := s.replay(stream, 0)
		if err == nil {
			err = sameScores(ctl.scores, scored.scores)
		}
		return row, err
	}
	for _, c := range cells {
		row, err := cell(c)
		if err != nil {
			return nil, fmt.Errorf("fresh publish %v qps %g: %w", c.every, c.qps, err)
		}
		res.rows = append(res.rows, *row)
	}
	claimEvery(&res.verdicts, "publishing while serving leaves every score byte-identical as the version climbs", res.rows,
		func(row freshRow) bool { return row.every > 0 }, func(row freshRow) bool { return row.versions >= 1 },
		"publishing cells committed at least one version; every cell re-scored identical to the never-published control")
	claimEvery(&res.verdicts, "freshness lag is zero once the last publish commits", res.rows,
		func(freshRow) bool { return true }, func(row freshRow) bool { return row.lag == 0 }, "cells ended with publish.lag = 0")
	return res, nil
}

// exportShards writes every shard's v2 file under dir and returns their
// total size.
func exportShards(m *model.Model, plan *sharding.Plan, tp *sharding.TierPlan, dir string) (int64, error) {
	var total int64
	for shard := 1; shard <= plan.NumShards; shard++ {
		path := core.ShardFilePath(dir, m.Config.Name, shard)
		f, err := os.Create(path)
		if err != nil {
			return 0, err
		}
		if err := core.ExportShardV2(m, plan, shard, f, tp); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// deltaTables picks one table per shard — enough to touch every shard's
// update path without flooding the control plane.
func deltaTables(plan *sharding.Plan) []int {
	var ids []int
	for si := range plan.Shards {
		for u := range plan.Shards[si].Units() {
			ids = append(ids, u.TableID)
			break
		}
	}
	return ids
}

func (res *freshResult) render(w io.Writer) {
	writeHeader(w, "Model freshness: persistent shard tables + delta publishing (DRM1, load-bal 4 shards, int8 cold tier)")
	fmt.Fprintf(w, "shard files: %d files, %.1f MiB, exported in %v\n",
		res.files, float64(res.fileBytes)/(1<<20), res.exportDur.Round(time.Millisecond))
	fmt.Fprintf(w, "boot: regenerate %v  vs  shard-file mmap %v  (%.1fx)\n",
		res.regenDur.Round(time.Millisecond), res.mmapDur.Round(time.Millisecond),
		float64(res.regenDur)/float64(res.mmapDur))
	fmt.Fprintf(w, "scores across boot paths: byte-identical over %d requests\n\n", res.n)

	fmt.Fprintf(w, "%-12s %-8s %-9s %-9s %-10s %-10s %-10s %-6s %s\n",
		"publish", "qps", "e2e p50", "e2e p99", "versions", "rows/pub", "pub mean", "lag", "scores")
	for _, row := range res.rows {
		label := "off"
		if row.every > 0 {
			label = row.every.String()
		}
		fmt.Fprintf(w, "%-12s %-8g %-9s %-9s %-10d %-10d %-10s %-6d %s\n",
			label, row.qps,
			fmt.Sprintf("%.2fms", row.p50*1e3), fmt.Sprintf("%.2fms", row.p99*1e3),
			row.versions, row.rowsPerPub,
			fmt.Sprintf("%.2fms", row.pubMeanMs), row.lag, "identical")
	}
	fmt.Fprintln(w)
	res.print(w)
	fmt.Fprintln(w, "\nReading: the mmap boot maps the bytes the regenerating boot would\nencode — that cost was paid once at export. Publishing rides the\nserving path: row deltas stage on table clones and cut over\natomically, so a publish every few milliseconds changes the model\nversion and no score; the latency tax shows up in the p99 column.\nWhat this run measured of each is in the verdict lines above; a score\nthat differs from the never-published control stops the experiment\nwith an error.")
}
