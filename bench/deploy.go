package main

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// spanCapacity matches cluster.Boot's default recorder slab.
const spanCapacity = 1 << 18

// tracedDeployment is the workload's deployment assembled by hand from
// the public constructors cluster.Boot itself uses, so that span-recording
// shims can sit on the three public layer interfaces: rpc.Handler (main
// and every sparse server), rpc.Caller (the engine's sparse calls) and
// frontend.Executor (the engine under the frontend). Server and link
// settings repeat Boot's defaults; trace.overhead_pct would show a drift.
type tracedDeployment struct {
	t         *tracer
	mainSrv   *rpc.Server
	front     *frontend.Frontend
	engine    *core.Engine
	callers   []*callerShim
	pubConns  []*rpc.Client
	shardSrvs []*rpc.Server
	shards    []*core.SparseShard
	mappings  []io.Closer
	publisher *core.Publisher
}

func bootTraced(fx *fixture, t *tracer) (*tracedDeployment, error) {
	d := &tracedDeployment{t: t}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	plat := platform.SCLarge()
	mainRec := trace.NewRecorder("main", spanCapacity)
	// The engine runs directly under the main handler unless a frontend
	// sits between them.
	engineParent := spanMainHandle
	if fx.w.front != nil {
		engineParent = spanExec
	}

	clients := make(map[string]rpc.Caller)
	if fx.plan.IsDistributed() {
		recs := make([]*trace.Recorder, fx.plan.NumShards)
		for i := range recs {
			recs[i] = trace.NewRecorder(core.ServiceName(i+1), spanCapacity)
		}
		if err := d.materialize(fx, recs); err != nil {
			return nil, err
		}
		d.publisher = &core.Publisher{Rec: mainRec, Shards: make(map[int][]core.ShardEndpoint)}
		for i, sh := range d.shards {
			sh.OpComputeScale = plat.OpComputeScale
			profile := plat.Network(fx.seed + int64(i)*7919)
			srv, err := rpc.NewServer("127.0.0.1:0", &handlerShim{t: t, next: sh, shard: i + 1}, rpc.ServerConfig{
				Recorder:        recs[i],
				ResponseLink:    profile.Response,
				BoilerplateCost: platform.BaseBoilerplate,
				ComputeScale:    plat.BoilerplateScale,
			})
			if err != nil {
				return nil, err
			}
			d.shardSrvs = append(d.shardSrvs, srv)
			client, err := rpc.Dial(srv.Addr(), profile.Request)
			if err != nil {
				return nil, err
			}
			caller := &callerShim{t: t, next: client, parent: engineParent}
			d.callers = append(d.callers, caller)
			clients[sh.ShardName] = caller
			// The publisher gets its own untraced control connection, as
			// Cluster.Publisher dials.
			pc, err := rpc.DialPool(srv.Addr(), nil, 1)
			if err != nil {
				return nil, err
			}
			d.pubConns = append(d.pubConns, pc)
			d.publisher.Shards[i+1] = []core.ShardEndpoint{{Service: sh.ShardName, Addr: srv.Addr(), Caller: pc}}
		}
	}

	eng, err := core.NewEngine(fx.model, fx.plan, core.EngineConfig{
		Recorder: mainRec,
		ClientFor: func(service string) (rpc.Caller, error) {
			c, ok := clients[service]
			if !ok {
				return nil, fmt.Errorf("bench: no client for %s", service)
			}
			return c, nil
		},
	})
	if err != nil {
		return nil, err
	}
	d.engine = eng
	if d.publisher != nil {
		d.publisher.Engine = eng
	}

	var handler rpc.Handler = &core.MainService{Engine: eng, Rec: mainRec}
	if fx.w.front != nil {
		cfg := *fx.w.front
		cfg.Obs = obs.Discard()
		d.front = frontend.New(&execShim{t: t, next: eng}, cfg)
		handler = &frontend.Service{F: d.front, Rec: mainRec}
	}
	d.mainSrv, err = rpc.NewServer("127.0.0.1:0", &handlerShim{t: t, next: handler}, rpc.ServerConfig{
		Recorder:        mainRec,
		BoilerplateCost: platform.BaseBoilerplate,
	})
	if err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// materialize builds the sparse shards' table stores: from the model, or
// from the exported shard files for an mmap workload.
func (d *tracedDeployment) materialize(fx *fixture, recs []*trace.Recorder) error {
	if fx.shardDir == "" {
		shards, err := core.MaterializeShardsTiered(fx.model, fx.plan, recs, fx.tier)
		d.shards = shards
		return err
	}
	for i := range recs {
		path := core.ShardFilePath(fx.shardDir, fx.model.Config.Name, i+1)
		sh, shard, mapping, err := core.OpenShardFile(path, recs[i])
		if err != nil {
			return err
		}
		d.shards = append(d.shards, sh)
		d.mappings = append(d.mappings, mapping)
		if shard != i+1 {
			return fmt.Errorf("bench: %s holds shard %d, want %d", path, shard, i+1)
		}
		if fx.tier != nil {
			sh.SetTier(fx.tier)
		}
	}
	return nil
}

func (d *tracedDeployment) target(fx *fixture) target {
	tgt := target{addr: d.mainSrv.Addr()}
	if fx.w.publishEvery > 0 {
		tgt.publish = func(ds *core.DeltaSet) error {
			_, err := d.publisher.Publish(ds)
			return err
		}
	}
	return tgt
}

// close tears down in cluster.Close's order: stop admitting, drain the
// frontend while the sparse clients still work, then drop connections,
// servers, table stores and, last, the mappings the stores view.
func (d *tracedDeployment) close() {
	if d.mainSrv != nil {
		d.mainSrv.Close()
	}
	if d.front != nil {
		d.front.Close()
	}
	for _, c := range d.callers {
		c.Close()
	}
	for _, c := range d.pubConns {
		c.Close()
	}
	for _, s := range d.shardSrvs {
		s.Close()
	}
	for _, sh := range d.shards {
		sh.Close()
	}
	for _, m := range d.mappings {
		m.Close()
	}
}
