package core

import (
	"fmt"
	"time"

	"repro/internal/sharding"
	"repro/internal/trace"
)

// Migrator drives online resharding over the ordinary RPC channel: it
// reads the lookups the engine has sent each placement unit, asks the
// rebalancer for an incremental migration plan, copies each move's table
// from source to destination in a staged transaction of its own
// (stage.go) while both keep serving, swaps the engine's routing, waits
// for the requests routed under the old plan to finish, and only then
// releases the sources' copies. Because every step is a wire call, the
// same driver reshards an in-process cluster and a fleet of standalone
// drmserve processes.
type Migrator struct {
	// Engine is the main shard's engine, rerouted at cutover.
	Engine *Engine
	// Shards maps 1-based shard numbers to their primary endpoints.
	Shards map[int]ShardEndpoint
	// Rec allocates call ids and records LayerMigration spans.
	Rec *trace.Recorder
}

// RebalanceReport summarizes one rebalance pass.
type RebalanceReport struct {
	// Load is the window of counted lookups the plan was computed from.
	Load *sharding.LoadSummary
	// Plan is the migration decision, including Current and Target.
	Plan *sharding.MigrationPlan
	// BytesMoved is the row data streamed across shards.
	BytesMoved int64
	// Duration covers planning through the last source release.
	Duration time.Duration
}

// Moved reports whether the pass migrated anything.
func (r *RebalanceReport) Moved() bool { return len(r.Plan.Moves) > 0 }

// String renders the report for logs.
func (r *RebalanceReport) String() string {
	if !r.Moved() {
		return fmt.Sprintf("rebalance: no-op (max shard load %.3g) in %v",
			r.Plan.MaxLoadBefore, r.Duration.Round(time.Millisecond))
	}
	return fmt.Sprintf("rebalance: %d moves, %.1f KiB streamed, max shard load %.3g -> %.3g, in %v",
		len(r.Plan.Moves), float64(r.BytesMoved)/1024,
		r.Plan.MaxLoadBefore, r.Plan.MaxLoadAfter, r.Duration.Round(time.Millisecond))
}

// Rebalance runs one full observe→plan→migrate→cutover pass and reports
// what it did: it plans on the lookups counted since the last reset and
// starts the next window. A pass that plans no moves touches nothing.
func (mg *Migrator) Rebalance(opts sharding.RebalanceOptions) (*RebalanceReport, error) {
	start := time.Now() //lint:allow determinism rebalance wall time is operator telemetry, not planner input
	load := mg.Engine.Load(true)
	cur := mg.Engine.Plan()
	mp, err := sharding.Rebalance(mg.Engine.Config(), cur, load, opts)
	if err != nil {
		return nil, err
	}
	report := &RebalanceReport{Load: load, Plan: mp}
	if len(mp.Moves) == 0 {
		report.Duration = time.Since(start) //lint:allow determinism report duration is operator telemetry
		return report, nil
	}

	// Phase 1: copy every move's table into its destination and commit it
	// there, while both shards keep serving under the current plan. A
	// failed move aborts its own transaction; committed moves stay (they
	// are live tables the next pass can plan around).
	for _, mv := range mp.Moves {
		n, err := mg.move(mv)
		report.BytesMoved += n
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: cutover. The engine swaps routing — new requests go to the
	// destinations, live as of commit — and returns once no request routed
	// under the old plan is running; until then the sources serve their
	// retained copies, byte-identical because storage is immutable. Only
	// then are those copies released; a drain that fails releases nothing.
	if err := mg.Engine.Reroute(mp.Target); err != nil {
		return nil, err
	}
	for _, mv := range mp.Moves {
		rel := &TableRelease{TableID: int32(mv.TableID), PartIndex: int32(mv.PartIndex)}
		if _, err := mg.Shards[mv.From].call(mg.Rec)(MethodTableRelease, encodeMsg(rel)); err != nil {
			return nil, err
		}
	}
	report.Duration = time.Since(start) //lint:allow determinism report duration is operator telemetry
	return report, nil
}

// move copies one placement unit source→destination in a transaction of
// its own and commits it. Returns bytes streamed.
func (mg *Migrator) move(mv sharding.Move) (int64, error) {
	srcEp, ok := mg.Shards[mv.From]
	if !ok {
		return 0, fmt.Errorf("core: move %v: no endpoint for source shard %d", mv, mv.From)
	}
	dstEp, ok := mg.Shards[mv.To]
	if !ok {
		return 0, fmt.Errorf("core: move %v: no endpoint for destination shard %d", mv, mv.To)
	}
	src, dst := srcEp.call(mg.Rec), dstEp.call(mg.Rec)
	start := mg.Rec.Now()

	// The source knows the unit's actual shape (partition row counts
	// depend on the modulus split) and encoding.
	held, err := listTables(src)
	if err != nil {
		return 0, err
	}
	shape, ok := findShape(held, mv.Key())
	if !ok {
		return 0, fmt.Errorf("core: move %v: %s does not hold the table", mv, srcEp.Service)
	}
	txn := anonTxn | mg.Rec.NextID()
	moved, err := copyTable(src, dst, txn, shape)
	if err == nil {
		_, err = commitTxn(dst, txn)
	}
	if err != nil {
		abortTxn(dst, txn)
		return moved, err
	}
	mg.Rec.Record(trace.Span{
		Layer: trace.LayerMigration,
		Name:  fmt.Sprintf("migrate/move/t%d.%d/%s->%s", mv.TableID, mv.PartIndex, srcEp.Service, dstEp.Service),
		Start: start, Dur: mg.Rec.Now().Sub(start),
	})
	return moved, nil
}
