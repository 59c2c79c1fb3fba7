package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// Multi-model co-serving: one shared fleet hosts several ranking models
// (DRM1/DRM2/DRM3 and tenant copies thereof), each with its own sparse
// deployment, SLA budget, and capacity entitlement, behind a single
// front door that routes "rank@<model>". An elastic scheduler watches
// per-model load (queue occupancy, executor busy time, sheds, replica
// health) and moves replica capacity between models: scale-up activates
// a parked slot by streaming the model's tables from a healthy peer
// (SetActiveReplicas — the PR-5 snapshot machinery), scale-down drains
// and returns the servers to the shared pool. The drain gate in
// frontend.Multi turns the allocation into an enforced throughput
// entitlement, so a consolidated fleet behaves like — and can be
// compared at equal hardware against — dedicated per-model fleets.

// TenantSpec describes one co-served model.
type TenantSpec struct {
	// Name keys the tenant everywhere: the rank@<Name> route, the
	// model=<Name> obs label, move timelines.
	Name string
	// Model and Plan are the tenant's built model and sharding plan.
	Model *model.Model
	Plan  *sharding.Plan
	// Frontend carries the tenant's own SLA budget, queue bound, and
	// batching config (Obs and the drain-gate wiring are filled in by
	// the fleet).
	Frontend frontend.Config
	// InitialReplicas is the tenant's serving replica count at boot
	// (default 1). SlotReplicas is the total slots booted, serving plus
	// parked headroom (default: the fleet-wide max initial+1, floored at
	// InitialReplicas). Min/MaxReplicas bound the elastic planner
	// (defaults 1 and SlotReplicas).
	InitialReplicas, SlotReplicas, MinReplicas, MaxReplicas int
}

// FleetOptions tunes a co-serving fleet boot.
type FleetOptions struct {
	// Capacity is the fleet's total hardware in units (sparse servers).
	// 0 sizes it to exactly the sum of initial allocations — no free
	// pool, so a claim waits for an idle model's reclaim to free a step.
	Capacity float64
	// Interval is the elastic scheduler tick (0 disables the background
	// loop — Step and ForceScale still work).
	Interval time.Duration
	// Seed, HedgeDelay, HealthFails, HealthProbe, Tier pass through to
	// every tenant cluster.
	Seed        int64
	HedgeDelay  time.Duration
	HealthFails int
	HealthProbe time.Duration
	// FrontMaxInFlight bounds the shared front door's concurrent
	// dispatches (0 = unbounded).
	FrontMaxInFlight int
	// Listen is the front door's listen address (default 127.0.0.1:0).
	Listen string
	// Obs receives the fleet's metrics. Every tenant's serving stages
	// register under a model=<name> label (engine.*{model=X},
	// frontend.*{model=X}, coserve.*{model=X}); fleet-wide counters stay
	// unlabeled.
	Obs *obs.Registry
}

// MoveEvent is one executed capacity move — the reallocation timeline's
// entry.
type MoveEvent struct {
	At       time.Time
	Model    string
	From, To int
	Reason   string
	// RebuildBytes is how many table bytes the activation streamed
	// (0 for shrinks); Took is the move's wall time, dominated by the
	// snapshot rebuild on grows and the drain grace on shrinks.
	RebuildBytes int64
	Took         time.Duration
}

// fleetTenant is one hosted model's serving stack.
type fleetTenant struct {
	spec   TenantSpec
	cl     *Cluster
	f      *frontend.Frontend
	weight float64 // fleet units per replica step (= sparse shard count)
}

// Fleet is a running co-serving deployment.
type Fleet struct {
	// Multi is the shared multi-tenant frontend (per-model queues behind
	// the weighted drain gate).
	Multi *frontend.Multi
	// Obs is the fleet's root metrics registry (never nil).
	Obs *obs.Registry

	tenants  map[string]*fleetTenant
	names    []string
	capacity float64
	frontSrv *rpc.Server
	frontRec *trace.Recorder
	moves    *obs.Counter

	// mu serializes planner passes, manual scales, and Close against
	// each other; the per-tenant signal cursors live under it.
	mu        sync.Mutex
	timeline  []MoveEvent
	lastSheds map[string]uint64
	lastBusy  map[string]uint64
	lastTick  time.Time
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// BootFleet boots every tenant's cluster, fronts them with a shared
// multi-tenant frontend and one front-door RPC server, and (with
// Interval > 0) starts the elastic scheduler loop. Call Close to tear
// down.
func BootFleet(specs []TenantSpec, opts FleetOptions) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: a fleet needs at least one tenant")
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.Discard()
	}

	// Default slot headroom: every tenant can grow at least one step
	// past the largest initial allocation in the fleet.
	maxInitial := 1
	for i := range specs {
		if specs[i].InitialReplicas > maxInitial {
			maxInitial = specs[i].InitialReplicas
		}
	}

	fl := &Fleet{
		Multi:     nil, // set below (needs capacity)
		Obs:       reg,
		tenants:   make(map[string]*fleetTenant, len(specs)),
		moves:     reg.Counter("coserve.moves"),
		lastSheds: make(map[string]uint64),
		lastBusy:  make(map[string]uint64),
		stop:      make(chan struct{}),
	}
	ok := false
	defer func() {
		if !ok {
			fl.Close()
		}
	}()

	var capacity float64
	type boot struct {
		spec   TenantSpec
		weight float64
	}
	boots := make([]boot, 0, len(specs))
	for _, spec := range specs {
		if spec.Name == "" || spec.Model == nil || spec.Plan == nil {
			return nil, fmt.Errorf("cluster: tenant spec needs Name, Model, and Plan")
		}
		if _, dup := fl.tenants[spec.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate tenant %q", spec.Name)
		}
		fl.tenants[spec.Name] = nil // reserve for dup detection
		if spec.InitialReplicas < 1 {
			spec.InitialReplicas = 1
		}
		weight := 1.0
		if spec.Plan.IsDistributed() {
			weight = float64(spec.Plan.NumShards)
			if spec.SlotReplicas < 1 {
				spec.SlotReplicas = maxInitial + 1
			}
			if spec.SlotReplicas < spec.InitialReplicas {
				spec.SlotReplicas = spec.InitialReplicas
			}
		} else {
			// A singular tenant has no sparse servers to reallocate: it
			// holds one frozen unit of frontend entitlement.
			spec.SlotReplicas = 1
			spec.InitialReplicas = 1
		}
		if spec.MinReplicas < 1 {
			spec.MinReplicas = 1
		}
		if spec.MaxReplicas <= 0 || spec.MaxReplicas > spec.SlotReplicas {
			spec.MaxReplicas = spec.SlotReplicas
		}
		capacity += float64(spec.InitialReplicas) * weight
		boots = append(boots, boot{spec, weight})
	}
	if opts.Capacity > 0 {
		capacity = opts.Capacity
	}
	fl.capacity = capacity
	fl.Multi = frontend.NewMulti(capacity)

	for i, b := range boots {
		spec, weight := b.spec, b.weight
		labeled := reg.Labeled("model=" + spec.Name)
		cl, err := Boot(spec.Model, spec.Plan, Options{
			Seed:           opts.Seed + int64(i)*65537,
			SparseReplicas: spec.SlotReplicas,
			ActiveReplicas: spec.InitialReplicas,
			HedgeDelay:     opts.HedgeDelay,
			HealthFails:    opts.HealthFails,
			HealthProbe:    opts.HealthProbe,
			Obs:            labeled,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: booting tenant %s: %w", spec.Name, err)
		}
		fcfg := spec.Frontend
		fcfg.Obs = labeled
		f, err := fl.Multi.Add(spec.Name, cl.Engine, fcfg, float64(spec.InitialReplicas)*weight)
		if err != nil {
			cl.Close()
			return nil, err
		}
		t := &fleetTenant{spec: spec, cl: cl, f: f, weight: weight}
		fl.tenants[spec.Name] = t
		fl.names = append(fl.names, spec.Name)
		labeled.RegisterProbe("coserve.active_replicas", func() int64 {
			return int64(t.cl.ActiveReplicas())
		})
		labeled.RegisterProbe("coserve.units", func() int64 {
			return int64(fl.Multi.Units(t.spec.Name))
		})
	}

	listen := opts.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	fl.frontRec = trace.NewRecorder("front", 1<<16)
	srv, err := rpc.NewServer(listen, &frontend.MultiService{M: fl.Multi, Rec: fl.frontRec}, rpc.ServerConfig{
		Recorder:        fl.frontRec,
		BoilerplateCost: platform.BaseBoilerplate,
		MaxInFlight:     opts.FrontMaxInFlight,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: starting fleet front door: %w", err)
	}
	fl.frontSrv = srv

	if opts.Interval > 0 {
		fl.wg.Add(1)
		go fl.run(opts.Interval)
	}
	fl.lastTick = time.Now()
	ok = true
	return fl, nil
}

// Addr is the fleet front door's serving address (route with
// core.RankMethodFor(model)).
func (fl *Fleet) Addr() string { return fl.frontSrv.Addr() }

// DialFront connects a client to the fleet front door.
func (fl *Fleet) DialFront() (*rpc.Client, error) { return rpc.Dial(fl.Addr(), nil) }

// Names lists the hosted models in boot order.
func (fl *Fleet) Names() []string { return append([]string(nil), fl.names...) }

// TenantCluster exposes model name's backing cluster (nil if unknown).
func (fl *Fleet) TenantCluster(name string) *Cluster {
	if t := fl.tenants[name]; t != nil {
		return t.cl
	}
	return nil
}

// Timeline returns a copy of the executed capacity moves so far.
func (fl *Fleet) Timeline() []MoveEvent {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return append([]MoveEvent(nil), fl.timeline...)
}

// run is the elastic scheduler loop.
func (fl *Fleet) run(interval time.Duration) {
	defer fl.wg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-fl.stop:
			return
		case <-tick.C:
			fl.Step()
		}
	}
}

// Step runs one observe→plan→apply pass and returns the moves executed.
// The background loop calls it every Interval; tests and experiments
// may drive it manually.
func (fl *Fleet) Step() []Move {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed {
		return nil
	}
	now := time.Now()
	window := now.Sub(fl.lastTick)
	fl.lastTick = now
	if window <= 0 {
		window = time.Nanosecond
	}

	loads := make([]TenantLoad, 0, len(fl.names))
	allocated := 0.0
	for _, name := range fl.names {
		t := fl.tenants[name]
		active := 1
		if t.spec.Plan.IsDistributed() {
			active = t.cl.ActiveReplicas()
		}
		allocated += float64(active) * t.weight
		st := t.f.Stats()
		sheds, busy := st.Sheds(), st.ExecBusyNs
		shedDelta := sheds - fl.lastSheds[name]
		busyDelta := busy - fl.lastBusy[name]
		fl.lastSheds[name], fl.lastBusy[name] = sheds, busy
		unhealthy := 0
		for _, snap := range t.cl.HealthSnapshots() {
			e := 0
			for idx, r := range snap.Replicas {
				if idx < active && r.State == replication.ReplicaEjected {
					e++
				}
			}
			if e > unhealthy {
				unhealthy = e
			}
		}
		min, max := t.spec.MinReplicas, t.spec.MaxReplicas
		if !t.spec.Plan.IsDistributed() {
			min, max = active, active // frozen: nothing to reallocate
		}
		loads = append(loads, TenantLoad{
			Name:       name,
			Active:     active,
			Min:        min,
			Max:        max,
			UnitWeight: t.weight,
			QueueFrac:  float64(t.f.QueueDepth()) / float64(t.f.QueueCap()),
			BusyFrac:   float64(busyDelta) / float64(window),
			ShedDelta:  shedDelta,
			Unhealthy:  unhealthy,
		})
	}

	moves := PlanElastic(loads, fl.capacity-allocated)
	for _, mv := range moves {
		if err := fl.applyLocked(mv); err != nil {
			// A failed move (e.g. no healthy rebuild peer appeared by
			// apply time) is dropped; the next pass replans from fresh
			// signals.
			return nil
		}
	}
	return moves
}

// ForceScale manually moves model name to n serving replicas through
// the same apply path the planner uses — the CI smoke's forced
// scale-up, and an operator override.
func (fl *Fleet) ForceScale(name string, n int) error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed {
		return fmt.Errorf("cluster: fleet is closed")
	}
	t := fl.tenants[name]
	if t == nil {
		return fmt.Errorf("cluster: unknown tenant %q", name)
	}
	from := t.cl.ActiveReplicas()
	if n == from {
		return nil
	}
	return fl.applyLocked(Move{Model: name, From: from, To: n, Reason: "forced"})
}

// applyLocked executes one move: resize the replica set, re-price the
// tenant's drain-gate entitlement, book the timeline entry. Caller
// holds fl.mu.
func (fl *Fleet) applyLocked(mv Move) error {
	t := fl.tenants[mv.Model]
	if t == nil {
		return fmt.Errorf("cluster: unknown tenant %q", mv.Model)
	}
	start := time.Now()
	stats, err := t.cl.SetActiveReplicas(mv.To)
	if err != nil {
		return err
	}
	fl.Multi.SetUnits(mv.Model, float64(mv.To)*t.weight)
	var bytes int64
	for _, st := range stats {
		bytes += st.Bytes
	}
	fl.timeline = append(fl.timeline, MoveEvent{
		At: start, Model: mv.Model, From: mv.From, To: mv.To,
		Reason: mv.Reason, RebuildBytes: bytes, Took: time.Since(start),
	})
	fl.moves.Inc()
	return nil
}

// Close stops the scheduler, closes the front door (draining in-flight
// requests), then the shared frontend, then every tenant cluster.
func (fl *Fleet) Close() {
	fl.mu.Lock()
	if fl.closed {
		fl.mu.Unlock()
		return
	}
	fl.closed = true
	fl.mu.Unlock()
	close(fl.stop)
	fl.wg.Wait()
	if fl.frontSrv != nil {
		fl.frontSrv.Close()
	}
	if fl.Multi != nil {
		fl.Multi.Close()
	}
	for _, t := range fl.tenants {
		if t != nil && t.cl != nil {
			t.cl.Close()
		}
	}
}
