package frontend

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// Multi hosts one Frontend per co-served model behind a shared drain
// gate: model-keyed queues (each tenant keeps its own bounded admission
// queue, SLA budget, and estimator) with weighted drain (the gate meters
// each tenant's execution bandwidth to its capacity entitlement), so one
// tenant's backlog can neither occupy another's queue nor starve its
// executor share.
//
// Entitlements are expressed in capacity units (sparse replica-servers
// in the fleet): a tenant holding u of the fleet's C units may use u/C
// of the execution bandwidth. See drainGate for why unused entitlement
// is not redistributed.
type Multi struct {
	gate *drainGate

	mu       sync.Mutex
	tenants  map[string]*Frontend
	units    map[string]float64
	capacity float64
}

// NewMulti builds an empty multi-tenant frontend. capacity is the
// fleet's total capacity in units.
func NewMulti(capacity float64) *Multi {
	if capacity <= 0 {
		capacity = 1
	}
	return &Multi{
		gate:     newDrainGate(),
		tenants:  make(map[string]*Frontend),
		units:    make(map[string]float64),
		capacity: capacity,
	}
}

// Add starts a Frontend for model name over exec, entitled to units of
// the fleet's capacity. cfg carries the tenant's own SLA budget, queue
// bound, and (typically per-model labeled) obs registry.
func (m *Multi) Add(name string, exec Executor, cfg Config, units float64) (*Frontend, error) {
	if name == "" {
		return nil, fmt.Errorf("frontend: tenant name must be non-empty")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.tenants[name]; dup {
		return nil, fmt.Errorf("frontend: duplicate tenant %q", name)
	}
	m.gate.add(name, units/m.capacity)
	cfg.gate = m.gate
	cfg.tenant = name
	f := New(exec, cfg)
	m.tenants[name] = f
	m.units[name] = units
	return f, nil
}

// Tenant returns model name's frontend, or nil.
func (m *Multi) Tenant(name string) *Frontend {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tenants[name]
}

// Names lists the tenants in sorted order.
func (m *Multi) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SetUnits re-prices tenant name's entitlement — the hook the elastic
// scheduler calls when it grows or shrinks a model's replica set.
func (m *Multi) SetUnits(name string, units float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.units[name]; !ok {
		return
	}
	m.units[name] = units
	m.gate.setShare(name, units/m.capacity)
}

// Units reports tenant name's current entitlement.
func (m *Multi) Units(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.units[name]
}

// Submit routes one request to model name's frontend.
func (m *Multi) Submit(name string, ctx trace.Context, req *core.RankingRequest) ([]float32, error) {
	f := m.Tenant(name)
	if f == nil {
		return nil, fmt.Errorf("frontend: unknown model %q", name)
	}
	return f.Submit(ctx, req)
}

// Close drains and stops every tenant frontend.
func (m *Multi) Close() {
	m.mu.Lock()
	tenants := make([]*Frontend, 0, len(m.tenants))
	for _, f := range m.tenants {
		tenants = append(tenants, f)
	}
	m.mu.Unlock()
	for _, f := range tenants {
		f.Close()
	}
}

// MultiService adapts a Multi to rpc.Handler: "rank@<model>" routes to
// that model's frontend; bare "rank" is accepted only when exactly one
// tenant is hosted (so single-model tooling keeps working against a
// co-serving front door).
type MultiService struct {
	M   *Multi
	Rec *trace.Recorder
}

// Handle implements rpc.Handler.
func (s *MultiService) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	model, ok := core.SplitRankMethod(method)
	if !ok {
		return nil, fmt.Errorf("frontend: unknown method %q", method)
	}
	if model == "" {
		names := s.M.Names()
		if len(names) != 1 {
			return nil, fmt.Errorf("frontend: method %q is ambiguous across %d models; use %q",
				method, len(names), core.RankMethodFor("<model>"))
		}
		model = names[0]
	}
	f := s.M.Tenant(model)
	if f == nil {
		return nil, fmt.Errorf("frontend: unknown model %q", model)
	}
	return core.HandleRank(s.Rec, ctx, core.RankMethod, body, f.Submit)
}

var _ rpc.Handler = (*MultiService)(nil)
