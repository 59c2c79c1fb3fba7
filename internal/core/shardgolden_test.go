package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// goldenShardModel is a four-table, two-net model small enough that a
// shard image of it is a few pages. Table 0 is split in two row-parts.
func goldenShardModel() *model.Model {
	return model.Build(model.Config{
		Name: "GOLD", Seed: 7, MeanItems: 2, DefaultBatch: 2,
		Nets: []model.NetSpec{
			{Name: "net1", DenseDim: 2, BottomMLP: []int{4}, EmbProj: 4, TopMLP: []int{4}, InteractFeatures: 2},
			{Name: "net2", DenseDim: 2, BottomMLP: []int{4}, EmbProj: 4, TopMLP: []int{1}, InteractFeatures: 2},
		},
		Tables: []model.TableSpec{
			{ID: 0, Name: "t0", Net: "net1", Rows: 6, Dim: 4, PoolingFactor: 1},
			{ID: 1, Name: "t1", Net: "net1", Rows: 3, Dim: 4, PoolingFactor: 1},
			{ID: 2, Name: "t2", Net: "net2", Rows: 5, Dim: 2, PoolingFactor: 1},
			{ID: 3, Name: "t3", Net: "net2", Rows: 2, Dim: 2, PoolingFactor: 1},
		},
	})
}

// goldenShardPlan places a whole table and a row-part on each shard;
// shard 2's whole table and part belong to one net.
func goldenShardPlan() *sharding.Plan {
	return &sharding.Plan{ModelName: "GOLD", Strategy: sharding.StrategyLoad, NumShards: 2, Shards: []sharding.Assignment{
		{Shard: 1, Tables: []int{3}, Parts: []sharding.PartRef{{TableID: 0, PartIndex: 0, NumParts: 2}}},
		{Shard: 2, Tables: []int{1, 2}, Parts: []sharding.PartRef{{TableID: 0, PartIndex: 1, NumParts: 2}}},
	}}
}

// TestShardImageGolden: shard 1 of the golden plan exports to the bytes
// of testdata/shard/GOLD.shard1. That file was written field by field
// from the v2 layout (shardfilev2.go), not by ExportShardV2: the header,
// then one directory entry per placement unit in plan order (table 3
// whole, then part 0 of 2 of table 0), then each fp32 section at the next
// 4096-byte boundary — table 3's rows, then table 0's even rows — with
// the model's values at seed 7. It pins the section order, the layout and
// the model's values; a change to any of them is a format or value change
// and re-derives the file the same way.
func TestShardImageGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "shard", "GOLD.shard1"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := ExportShardV2(goldenShardModel(), goldenShardPlan(), 1, &got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("exported image (%d bytes) differs from the golden (%d bytes)", got.Len(), len(want))
	}
	sf, err := parseShardV2(want, false)
	if err != nil {
		t.Fatal(err)
	}
	var units []sharding.PartRef
	for _, st := range sf.Tables {
		units = append(units, st.PartRef)
	}
	if wantUnits := []sharding.PartRef{{TableID: 3, NumParts: 1}, {TableID: 0, PartIndex: 0, NumParts: 2}}; !reflect.DeepEqual(units, wantUnits) {
		t.Fatalf("golden directory lists %v, want %v", units, wantUnits)
	}
}

// TestGroupEntryOrder: a call plan asks each shard for its units net by
// net and, within a net, in plan order — whole tables, then row-parts —
// which is the order the shard's response entries come back in.
func TestGroupEntryOrder(t *testing.T) {
	eng, err := NewEngine(goldenShardModel(), goldenShardPlan(), EngineConfig{
		Recorder:  trace.NewRecorder("main", 64),
		ClientFor: func(string) (rpc.Caller, error) { return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	whole := func(id int) sharding.PartRef { return sharding.PartRef{TableID: id, NumParts: 1} }
	half := func(p int) sharding.PartRef { return sharding.PartRef{TableID: 0, PartIndex: p, NumParts: 2} }
	want := []struct {
		service string
		entries []groupEntry
	}{
		{"sparse1", []groupEntry{{net: 0, slot: 0, PartRef: half(0)}, {net: 1, slot: 1, PartRef: whole(3)}}},
		{"sparse2", []groupEntry{{net: 0, slot: 1, PartRef: whole(1)}, {net: 0, slot: 0, PartRef: half(1)}, {net: 1, slot: 0, PartRef: whole(2)}}},
	}
	groups := eng.prog.Load().nets[0].call.groups
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(groups), len(want))
	}
	for i, g := range groups {
		if g.service != want[i].service || !reflect.DeepEqual(g.entries, want[i].entries) {
			t.Errorf("group %d: %s entries %+v, want %s entries %+v", i, g.service, g.entries, want[i].service, want[i].entries)
		}
	}
}
