package sharding

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// rebalanceFixture builds a 4-table, 2-shard plan with lopsided
// counted lookups: tables 0,1 on shard 1 carry nearly all the heat.
func rebalanceFixture(t *testing.T) (model.Config, *Plan, *LoadSummary) {
	t.Helper()
	cfg := model.Config{Name: "toy", Nets: []model.NetSpec{{Name: "net1", DenseDim: 4}}}
	for i := 0; i < 4; i++ {
		cfg.Tables = append(cfg.Tables, model.TableSpec{
			ID: i, Name: "t", Net: "net1", Rows: 16, Dim: 4, PoolingFactor: 1,
		})
	}
	plan := &Plan{
		ModelName: "toy", Strategy: StrategyLoad, NumShards: 2,
		Shards: []Assignment{
			{Shard: 1, Tables: []int{0, 1}},
			{Shard: 2, Tables: []int{2, 3}},
		},
	}
	if err := plan.Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	load := &LoadSummary{Lookups: map[TableLoadKey]int64{
		{TableID: 0}: 1000, {TableID: 1}: 800, {TableID: 2}: 100, {TableID: 3}: 100,
	}}
	return cfg, plan, load
}

func TestRebalanceMovesHotTable(t *testing.T) {
	cfg, plan, load := rebalanceFixture(t)
	mp, err := Rebalance(&cfg, plan, load, RebalanceOptions{MoveBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Moves) != 1 {
		t.Fatalf("moves = %v, want exactly 1", mp.Moves)
	}
	mv := mp.Moves[0]
	// Shard 1 holds 1800 lookups, shard 2 200; moving table 1 (800)
	// lands closest to halving the 1600-lookup gap.
	if mv.TableID != 1 || mv.From != 1 || mv.To != 2 {
		t.Fatalf("move = %v, want table 1 shard 1 -> 2", mv)
	}
	if err := mp.Target.Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	if mp.MaxLoadAfter >= mp.MaxLoadBefore {
		t.Fatalf("max load %v -> %v did not improve", mp.MaxLoadBefore, mp.MaxLoadAfter)
	}
}

func TestRebalanceMoveBudgetZeroIsNoOp(t *testing.T) {
	cfg, plan, load := rebalanceFixture(t)
	mp, err := Rebalance(&cfg, plan, load, RebalanceOptions{MoveBudget: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Moves) != 0 {
		t.Fatalf("budget 0 produced moves: %v", mp.Moves)
	}
	if mp.Target != plan {
		t.Fatal("budget 0 must leave the target aliased to the current plan")
	}
	if mp.MaxLoadAfter != mp.MaxLoadBefore {
		t.Fatalf("no-op changed max load %v -> %v", mp.MaxLoadBefore, mp.MaxLoadAfter)
	}
}

func TestRebalanceDeterministic(t *testing.T) {
	cfg, plan, load := rebalanceFixture(t)
	first, err := Rebalance(&cfg, plan, load, RebalanceOptions{MoveBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Rebalance(&cfg, plan, load, RebalanceOptions{MoveBudget: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Moves, again.Moves) {
			t.Fatalf("run %d moves %v != %v", i, again.Moves, first.Moves)
		}
		if !reflect.DeepEqual(first.Target, again.Target) {
			t.Fatalf("run %d target differs", i)
		}
	}
}

func TestRebalanceBalancedPlanIsStable(t *testing.T) {
	cfg, plan, _ := rebalanceFixture(t)
	load := NewLoadSummary()
	for i := 0; i < 4; i++ {
		load.Add(TableLoadKey{TableID: i}, 500)
	}
	mp, err := Rebalance(&cfg, plan, load, RebalanceOptions{MoveBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Moves) != 0 {
		t.Fatalf("balanced load still produced moves: %v", mp.Moves)
	}
}

func TestRebalanceNeverEmptiesShard(t *testing.T) {
	cfg, plan, _ := rebalanceFixture(t)
	// All heat on shard 2's two tables; a naive balancer would strip
	// shard 2 bare, but plans forbid empty shards.
	load := &LoadSummary{Lookups: map[TableLoadKey]int64{{TableID: 2}: 5000, {TableID: 3}: 4000}}
	mp, err := Rebalance(&cfg, plan, load, RebalanceOptions{MoveBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Target.Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	for _, a := range mp.Target.Shards {
		if ShardTableCount(&a) == 0 {
			t.Fatalf("rebalance emptied shard %d", a.Shard)
		}
	}
}

func TestRebalancePartsMoveAsUnits(t *testing.T) {
	cfg := model.Config{Name: "toy", Nets: []model.NetSpec{{Name: "net1", DenseDim: 4}}}
	for i := 0; i < 3; i++ {
		cfg.Tables = append(cfg.Tables, model.TableSpec{
			ID: i, Name: "t", Net: "net1", Rows: 16, Dim: 4, PoolingFactor: 1,
		})
	}
	plan := &Plan{
		ModelName: "toy", Strategy: StrategyLoad, NumShards: 2,
		Shards: []Assignment{
			{Shard: 1, Tables: []int{1}, Parts: []PartRef{{TableID: 0, PartIndex: 0, NumParts: 2}}},
			{Shard: 2, Tables: []int{2}, Parts: []PartRef{{TableID: 0, PartIndex: 1, NumParts: 2}}},
		},
	}
	if err := plan.Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	load := &LoadSummary{Lookups: map[TableLoadKey]int64{
		{TableID: 0, PartIndex: 0}: 900, {TableID: 1}: 900, {TableID: 0, PartIndex: 1}: 100, {TableID: 2}: 100,
	}}
	mp, err := Rebalance(&cfg, plan, load, RebalanceOptions{MoveBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Moves) != 1 {
		t.Fatalf("moves = %v", mp.Moves)
	}
	if err := mp.Target.Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	mv := mp.Moves[0]
	if mv.NumParts == 2 && mv.TableID != 0 {
		t.Fatalf("part move references table %d", mv.TableID)
	}
}

// TestLoadSummaryMergeAndCodecRoundTrip: a summary adds lookups per
// unit, and a unit's weight is its lookups (0 for a unit never counted).
func TestLoadSummaryMergeAndCodecRoundTrip(t *testing.T) {
	s := NewLoadSummary()
	s.Add(TableLoadKey{TableID: 1}, 5)
	s.Add(TableLoadKey{TableID: 1}, 7)
	s.Add(TableLoadKey{TableID: 2, PartIndex: 1}, 3)
	want := map[TableLoadKey]int64{{TableID: 1}: 12, {TableID: 2, PartIndex: 1}: 3}
	if !reflect.DeepEqual(s.Lookups, want) {
		t.Fatalf("lookups = %v, want %v", s.Lookups, want)
	}
	if w := s.Weight(TableLoadKey{TableID: 1}); w != 12 {
		t.Fatalf("weight = %v, want 12", w)
	}
	if w := s.Weight(TableLoadKey{TableID: 3}); w != 0 {
		t.Fatalf("uncounted unit weight = %v, want 0", w)
	}
}
