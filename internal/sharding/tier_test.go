package sharding

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func tierTestConfig() model.Config {
	cfg := model.DRM2()
	// Mix of sizes so minTableBytes has something to exempt.
	for i := range cfg.Tables {
		if i%5 == 0 {
			cfg.Tables[i].Rows = 32 // tiny: stays fp32
		} else {
			cfg.Tables[i].Rows = 4096
		}
	}
	return cfg
}

func TestParsePrecision(t *testing.T) {
	for _, ok := range []string{"fp32", "fp16", "int8"} {
		if _, err := ParsePrecision(ok); err != nil {
			t.Fatalf("%s rejected: %v", ok, err)
		}
	}
	if _, err := ParsePrecision("int4"); err == nil {
		t.Fatal("unknown precision accepted")
	}
}

func TestPlanTiersPrecisionSelection(t *testing.T) {
	cfg := tierTestConfig()
	tp := PlanTiers(&cfg, TierOptions{ColdPrecision: PrecisionInt8})
	counts := tp.CountByPrecision(&cfg)
	if counts[PrecisionInt8] == 0 {
		t.Fatal("no tables quantized to int8 under the default budget")
	}
	if counts[PrecisionFP32] == 0 {
		t.Fatal("tiny tables should stay fp32 under minTableBytes")
	}
	for _, ts := range cfg.Tables {
		if ts.Bytes() < minTableBytes {
			if p := tp.Precision(ts.ID); p != PrecisionFP32 {
				t.Fatalf("tiny table %d planned %s", ts.ID, p)
			}
		}
	}

	// A budget tighter than int8's error forces fp16; tighter than fp16's
	// forces fp32.
	tp16 := PlanTiers(&cfg, TierOptions{ColdPrecision: PrecisionInt8, ErrorBudget: 1.0 / 1000})
	if c := tp16.CountByPrecision(&cfg); c[PrecisionInt8] != 0 || c[PrecisionFP16] == 0 {
		t.Fatalf("error budget 1/1000 should demote int8 to fp16: %v", c)
	}
	tp32 := PlanTiers(&cfg, TierOptions{ColdPrecision: PrecisionInt8, ErrorBudget: 1.0 / 10000})
	if c := tp32.CountByPrecision(&cfg); c[PrecisionFP32] != len(cfg.Tables) {
		t.Fatalf("error budget 1/10000 should keep everything fp32: %v", c)
	}

	// The precision cap rules int8 out regardless of budget.
	capped := PlanTiers(&cfg, TierOptions{ColdPrecision: PrecisionFP16, ErrorBudget: 1})
	if c := capped.CountByPrecision(&cfg); c[PrecisionInt8] != 0 || c[PrecisionFP16] == 0 {
		t.Fatalf("fp16 cap violated: %v", c)
	}
	off := PlanTiers(&cfg, TierOptions{ColdPrecision: PrecisionFP32})
	if c := off.CountByPrecision(&cfg); c[PrecisionFP32] != len(cfg.Tables) {
		t.Fatalf("fp32 cap should disable compression: %v", c)
	}
}

func TestTierTableBytes(t *testing.T) {
	ts := model.TableSpec{Rows: 100, Dim: 16}
	if got := TierTableBytes(ts, PrecisionFP32); got != 100*16*4 {
		t.Fatalf("fp32 bytes %d", got)
	}
	if got := TierTableBytes(ts, PrecisionFP16); got != 100*16*2 {
		t.Fatalf("fp16 bytes %d", got)
	}
	if got := TierTableBytes(ts, PrecisionInt8); got != 100*(16+4) {
		t.Fatalf("int8 bytes %d", got)
	}
}

func TestShardResidentBytes(t *testing.T) {
	cfg := tierTestConfig()
	pooling := map[int]float64{}
	for _, ts := range cfg.Tables {
		pooling[ts.ID] = 1
	}
	plan, err := CapacityBalanced(&cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp := PlanTiers(&cfg, TierOptions{ColdPrecision: PrecisionInt8})
	var total int64
	for i := range plan.Shards {
		rb := tp.ShardResidentBytes(&cfg, &plan.Shards[i])
		fb := ShardCapacityBytes(&cfg, &plan.Shards[i])
		if rb <= 0 || rb >= fb {
			t.Fatalf("shard %d resident %d not in (0, fp32 %d)", i+1, rb, fb)
		}
		total += rb
	}
	if got := tp.ResidentBytes(&cfg); got != total {
		// Whole-table placement: per-shard resident bytes must sum to the
		// model total.
		t.Fatalf("ResidentBytes %d != shard sum %d", got, total)
	}
	// A nil plan prices everything at fp32.
	var nilPlan *TierPlan
	if got := nilPlan.ShardResidentBytes(&cfg, &plan.Shards[0]); got != ShardCapacityBytes(&cfg, &plan.Shards[0]) {
		t.Fatalf("nil tier plan resident %d != fp32 capacity", got)
	}

	report := TieredReport(&cfg, plan, tp)
	if !strings.Contains(report, "reduction") || !strings.Contains(report, "shard 1") {
		t.Fatalf("report missing expected lines:\n%s", report)
	}
}
