package cluster_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// TestPublishDuringRebalanceKeepsDeltas is the lost-update check for the
// two control-plane drivers running at once. A publisher streams
// non-identity deltas in a tight loop — every version rewrites one
// (table, row) nobody rewrites again, with values derived from the
// version — while rebalance passes keep moving the tables being
// published. A move reads a table at its source over several calls and
// cuts over later; a delta committed at the source in between would be
// missing from the moved copy while the publish still reports success.
// So afterwards the deployment must score byte-identically to a control
// that received the same deltas and never moved a table.
func TestPublishDuringRebalanceKeepsDeltas(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	moving, movingRep := bootTiered(t, cfg, m)
	control, controlRep := bootTiered(t, cfg, m)

	// Version v rewrites the next untouched row of table hot[v%len(hot)],
	// where hot is the table set the current pass is about to move from:
	// the publishes land exactly where the migration is reading. It
	// returns nil once that table has no untouched row left — a later
	// version must never paper over an earlier one's loss.
	var hot atomic.Pointer[[]int]
	nextRow := make(map[int]int) // publisher goroutine only
	delta := func(v uint64) *core.DeltaSet {
		tables := *hot.Load()
		id := tables[int(v)%len(tables)]
		row := nextRow[id]
		if row == cfg.Tables[id].Rows {
			return nil
		}
		nextRow[id]++
		data := make([]float32, cfg.Tables[id].Dim)
		for i := range data {
			data[i] = float32((int(v)*7+i*3)%41-20) * 0.005
		}
		return &core.DeltaSet{Version: v, Tables: []core.TableDelta{{TableID: id, Rows: []int32{int32(row)}, Data: data}}}
	}

	// A handful of hot tables per pass: the rebalancer moves the hottest
	// units first, so most of what is being published is being moved.
	skewOnto := func(shard int) []*workload.Request {
		tables := append([]int(nil), moving.Plan.Shards[shard].Tables...)
		tables = tables[:min(8, len(tables))]
		hot.Store(&tables)
		skew := make(map[int]float64)
		for _, id := range tables {
			skew[id] = 6
		}
		return workload.ApplySkew(workload.NewGenerator(cfg, 23).GenerateBatch(12), skew)
	}
	skewOnto(0)

	stop := make(chan struct{})
	var published []*core.DeltaSet
	var pubErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			ds := delta(v)
			if ds == nil {
				return
			}
			if _, err := moving.Publish(ds); err != nil {
				pubErr = err
				return
			}
			published = append(published, ds)
		}
	}()

	// Forced moves: each pass piles load onto one shard's tables, then
	// rebalances it away while the publisher keeps writing those tables.
	moves := 0
	for pass := 0; pass < 8; pass++ {
		if res := movingRep.RunSerial(skewOnto(pass % len(moving.Plan.Shards))); res.Failed() > 0 {
			t.Fatal(res.Errors[0])
		}
		report, err := moving.Rebalance(sharding.RebalanceOptions{MoveBudget: 6})
		if err != nil {
			t.Fatal(err)
		}
		moves += len(report.Plan.Moves)
	}
	close(stop)
	wg.Wait()
	if pubErr != nil {
		t.Fatalf("publish v%d failed beside a rebalance: %v", len(published)+1, pubErr)
	}
	if moves == 0 || len(published) == 0 {
		t.Fatalf("%d moves, %d publishes: nothing interleaved", moves, len(published))
	}

	for _, ds := range published {
		if _, err := control.Publish(ds); err != nil {
			t.Fatal(err)
		}
	}
	stream := workload.NewGenerator(cfg, 31).GenerateBatch(60)
	want, res := controlRep.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	got, res := movingRep.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	for i := range want {
		requireSameScores(t, want[i], got[i], "after publishes beside moves", i)
	}
	t.Logf("%d deltas published beside %d table moves", len(published), moves)
}
