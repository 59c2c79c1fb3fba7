// Shard-file freshness subcommands: export-v2 writes the mmap-able
// persistent format, delta-diff previews the row delta a publish would
// stream between two shard files.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// dispatchSubcommand routes shardtool <sub> invocations; it reports
// whether it handled the arguments.
func dispatchSubcommand(args []string) bool {
	if len(args) == 0 {
		return false
	}
	switch args[0] {
	case "export-v2":
		runExportV2(args[1:])
	case "delta-diff":
		runDeltaDiff(args[1:])
	default:
		return false
	}
	return true
}

// runExportV2 writes every shard of a plan as a v2 file into -dir, each
// table section stored page-aligned in its cold-tier precision so a
// booting shard can mmap and serve.
func runExportV2(args []string) {
	fs := flag.NewFlagSet("shardtool export-v2", flag.ExitOnError)
	var (
		modelName = fs.String("model", "DRM1", "model: DRM1, DRM2, DRM3")
		strategy  = fs.String("strategy", "load-bal", "sharding strategy")
		shards    = fs.Int("shards", 8, "sparse shard count")
		dir       = fs.String("dir", "", "output directory for <model>.shardN files (required)")
		coldPrec  = fs.String("cold-precision", "fp32", "cold-tier storage precision: fp32, fp16, or int8")
		errBudget = fs.Float64("error-budget", 0, "max quantization error as a fraction of value scale (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *dir == "" {
		fatal(fmt.Errorf("export-v2: -dir is required"))
	}
	cfg := model.ByName(*modelName)
	// The deployment estimate, not a tunable one: a file cut under another
	// sample count would hold tables the main shard does not route to it.
	plan, err := sharding.ByStrategy(&cfg, *strategy, *shards, workload.DeploymentPooling(cfg))
	if err != nil {
		fatal(err)
	}
	if !plan.IsDistributed() {
		fatal(fmt.Errorf("export-v2: singular plans have no shards to export"))
	}
	prec, err := sharding.ParsePrecision(*coldPrec)
	if err != nil {
		fatal(err)
	}
	var tier *sharding.TierPlan
	if prec != sharding.PrecisionFP32 {
		tier = sharding.PlanTiers(&cfg, sharding.TierOptions{ColdPrecision: prec, ErrorBudget: *errBudget})
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	m := model.Build(cfg)
	for shard := 1; shard <= plan.NumShards; shard++ {
		path := core.ShardFilePath(*dir, cfg.Name, shard)
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := core.ExportShardV2(m, plan, shard, f, tier); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%.1f MiB)\n", path, float64(st.Size())/(1<<20))
	}
}

// runDeltaDiff compares two shard files of the same shard and reports,
// per table, the rows whose served values differ — the delta set a
// publish would need to stream to move one to the other.
func runDeltaDiff(args []string) {
	fs := flag.NewFlagSet("shardtool delta-diff", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if fs.NArg() != 2 {
		fatal(fmt.Errorf("delta-diff: usage: shardtool delta-diff <old> <new>"))
	}
	oldSF := loadShard(fs.Arg(0))
	newSF := loadShard(fs.Arg(1))
	if oldSF.Shard != newSF.Shard {
		fmt.Printf("warning: comparing shard %d against shard %d\n", oldSF.Shard, newSF.Shard)
	}
	type key struct{ id, part int }
	oldTabs := make(map[key]core.ShardTable)
	for _, t := range oldSF.Tables {
		oldTabs[key{t.TableID, t.PartIndex}] = t
	}
	totalRows, totalChanged := 0, 0
	for _, nt := range newSF.Tables {
		k := key{nt.TableID, nt.PartIndex}
		ot, ok := oldTabs[k]
		if !ok {
			fmt.Printf("table %d part %d: only in %s (%d rows)\n", nt.TableID, nt.PartIndex, fs.Arg(1), nt.Rows)
			continue
		}
		delete(oldTabs, k)
		if ot.Rows != nt.Rows || ot.Dim != nt.Dim {
			fmt.Printf("table %d part %d: reshaped %dx%d -> %dx%d\n",
				nt.TableID, nt.PartIndex, ot.Rows, ot.Dim, nt.Rows, nt.Dim)
			continue
		}
		changed := diffRows(ot, nt)
		totalRows += nt.Rows
		totalChanged += changed
		if changed > 0 {
			fmt.Printf("table %d part %d: %d/%d rows differ (%.1f KiB fp32 delta)\n",
				nt.TableID, nt.PartIndex, changed, nt.Rows, float64(4*changed*nt.Dim)/1024)
		}
	}
	for k := range oldTabs {
		fmt.Printf("table %d part %d: only in %s\n", k.id, k.part, fs.Arg(0))
	}
	if totalChanged == 0 && len(oldTabs) == 0 {
		fmt.Printf("identical: %d rows serve the same values\n", totalRows)
	} else {
		fmt.Printf("delta: %d/%d rows differ\n", totalChanged, totalRows)
	}
}

func loadShard(path string) *core.ShardFileData {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	sf, err := core.LoadShardFile(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return sf
}

// diffRows counts rows whose *served* fp32 values differ bitwise —
// comparing through the lookup path, so an int8 table and a reconverted
// int8 table with identical codes count as identical.
func diffRows(a, b core.ShardTable) int {
	bufA := make([]float32, a.Dim)
	bufB := make([]float32, b.Dim)
	changed := 0
	for r := 0; r < a.Rows; r++ {
		for i := range bufA {
			bufA[i], bufB[i] = 0, 0
		}
		a.Table.AccumulateRow(bufA, r)
		b.Table.AccumulateRow(bufB, r)
		for i := range bufA {
			if math.Float32bits(bufA[i]) != math.Float32bits(bufB[i]) {
				changed++
				break
			}
		}
	}
	return changed
}
