package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// planSeed fixes the pooling sample the load-balanced plan is packed
// from: the plan is deployment configuration, so it must not move with
// the traffic seed.
const planSeed = 12345 + 777

// fixture is everything a run needs before the first timed request: the
// model, the plan, the request pool in wire form, and the control
// response every timed response is compared with.
type fixture struct {
	w     *spec
	seed  int64
	model *model.Model
	plan  *sharding.Plan
	tier  *core.TierConfig
	// pool summarizes the generated requests, bodies holds their rank
	// wire form and want the byte-exact response body each must come
	// back with. The requests themselves are dropped once scored: 500 of
	// them hold over 100 MiB, and the collector paces the deployment by
	// the live heap.
	pool   []poolStat
	bodies [][]byte
	want   [][]byte
	// shardDir holds the exported v2 shard files of an mmap workload.
	shardDir string

	buildS, genS, exportS float64
}

// poolStat is what the metrics need to know of one pool request: its
// item count, its embedding lookups, and the cold-tier bytes those read.
type poolStat struct {
	items     int
	lookups   int
	bytesRead int
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// newFixture builds the model, generates and encodes the request pool
// from seed, exports shard files for an mmap workload, and computes the
// control scores.
func newFixture(w *spec, seed int64, scratch string) (*fixture, error) {
	fx := &fixture{w: w, seed: seed}
	cfg := model.ByName(w.model)

	t0 := time.Now()
	fx.model = model.Build(cfg)
	fx.buildS = since(t0)

	fx.plan = sharding.Singular(&cfg)
	if w.shards > 0 {
		pooling := workload.EstimatePooling(workload.NewGenerator(cfg, planSeed), 200)
		plan, err := sharding.LoadBalanced(&cfg, w.shards, pooling)
		if err != nil {
			return nil, err
		}
		fx.plan = plan
	}
	if w.tiered {
		fx.tier = &core.TierConfig{
			CacheMB: cacheMB,
			Plan:    sharding.PlanTiers(&cfg, sharding.TierOptions{ColdPrecision: sharding.PrecisionInt8}),
		}
	}

	t0 = time.Now()
	gen := workload.NewGenerator(cfg, seed)
	if w.zipf > 1 {
		gen.EnableRowSkew(w.zipf)
	}
	reqs := gen.GenerateBatch(poolSize)
	fx.pool = make([]poolStat, len(reqs))
	fx.bodies = make([][]byte, len(reqs))
	for i, req := range reqs {
		fx.bodies[i] = core.EncodeRankingRequest(core.FromWorkload(req))
		fx.pool[i].items = req.Items
		for tid, bags := range req.Bags {
			n := embedding.TotalLookups(bags)
			fx.pool[i].lookups += n
			fx.pool[i].bytesRead += n * fx.rowBytes(tid)
		}
	}
	fx.genS = since(t0)

	if w.mmap {
		t0 = time.Now()
		fx.shardDir = filepath.Join(scratch, fmt.Sprintf("shards-%d", os.Getpid()))
		if err := fx.exportShards(); err != nil {
			fx.close()
			return nil, err
		}
		fx.exportS = since(t0)
	}

	if err := fx.computeControl(reqs); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

// rowBytes is the encoded size of one row of a table in the deployment's
// cold tier.
func (fx *fixture) rowBytes(tableID int) int {
	dim := fx.model.Config.Tables[tableID].Dim
	if fx.tier == nil {
		return dim * 4
	}
	switch fx.tier.Plan.Precision(tableID) {
	case sharding.PrecisionInt8:
		return dim + 4
	case sharding.PrecisionFP16:
		return dim * 2
	}
	return dim * 4
}

func (fx *fixture) close() {
	if fx.shardDir != "" {
		os.RemoveAll(fx.shardDir)
	}
}

func (fx *fixture) exportShards() error {
	if err := os.MkdirAll(fx.shardDir, 0o755); err != nil {
		return err
	}
	for shard := 1; shard <= fx.plan.NumShards; shard++ {
		f, err := os.Create(core.ShardFilePath(fx.shardDir, fx.model.Config.Name, shard))
		if err != nil {
			return err
		}
		err = core.ExportShardV2(fx.model, fx.plan, shard, f, nil)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// computeControl scores the pool on this same commit by the simplest path
// that must agree byte for byte: an in-process singular engine for fp32
// tables, and for the tiered workload a serial, unfronted deployment with
// the same tier plan (int8 rows decode to other floats than fp32 ones).
func (fx *fixture) computeControl(reqs []*workload.Request) error {
	fx.want = make([][]byte, len(reqs))
	if fx.tier == nil {
		cfg := fx.model.Config
		eng, err := core.NewEngine(fx.model, sharding.Singular(&cfg), core.EngineConfig{
			Recorder: trace.NewRecorder("control", 1),
		})
		if err != nil {
			return err
		}
		for i, req := range reqs {
			scores, err := eng.Execute(trace.Context{TraceID: uint64(i + 1)}, core.FromWorkload(req))
			if err != nil {
				return fmt.Errorf("control request %d: %w", i, err)
			}
			fx.want[i] = core.EncodeRankingResponse(&core.RankingResponse{Scores: scores})
		}
		return nil
	}
	cl, err := cluster.Boot(fx.model, fx.plan, cluster.Options{Seed: fx.seed, Tier: fx.tier})
	if err != nil {
		return err
	}
	defer cl.Close()
	client, err := rpc.DialPool(cl.MainAddr(), nil, 1)
	if err != nil {
		return err
	}
	defer client.Close()
	for i, body := range fx.bodies {
		resp, err := client.CallSync(&rpc.Request{Method: core.RankMethod, TraceID: uint64(i + 1), CallID: uint64(i + 1), Body: body})
		if err != nil {
			return fmt.Errorf("control request %d: %w", i, err)
		}
		fx.want[i] = resp.Body
	}
	return nil
}

// identityDelta republishes a sliding window of rows the deployment
// already serves, one table per shard as the fresh experiment does: real
// sparse.update.* traffic that provably leaves every score unchanged.
func (fx *fixture) identityDelta(version uint64) *core.DeltaSet {
	ds := &core.DeltaSet{Version: version}
	for si := range fx.plan.Shards {
		a := &fx.plan.Shards[si]
		var id int
		switch {
		case len(a.Tables) > 0:
			id = a.Tables[0]
		case len(a.Parts) > 0:
			id = a.Parts[0].TableID
		default:
			continue
		}
		dense, ok := fx.model.Tables[id].(*embedding.Dense)
		if !ok {
			continue
		}
		n := min(deltaRowsPer, dense.RowsN)
		start := int(version*2654435761) % dense.RowsN
		td := core.TableDelta{TableID: id}
		for k := 0; k < n; k++ {
			row := (start + k) % dense.RowsN
			td.Rows = append(td.Rows, int32(row))
			td.Data = append(td.Data, dense.Row(row)...)
		}
		ds.Tables = append(ds.Tables, td)
	}
	return ds
}

// bootOptions are the cluster options of the workload's deployment;
// everything not named keeps cluster.Boot's defaults (SC-Large links,
// boilerplate cost, GOGC 400), the deployment every experiment ships.
func (fx *fixture) bootOptions() cluster.Options {
	return cluster.Options{Seed: fx.seed, Tier: fx.tier, Frontend: fx.w.front, ShardDir: fx.shardDir}
}
