package cluster

import "fmt"

// The elastic capacity planner: a pure decision function mapping one
// observation window's per-model load signals to at most one replica-set
// move. Keeping it free of clocks, locks, and I/O makes the hysteresis
// table-testable; the Fleet owns gathering the signals and executing the
// move (a snapshot rebuild on the way up, drain-and-reclaim on the way
// down).

// Pressure thresholds. A model at or above scaleUpAt claims another
// replica step; one at or below scaleDownAt may return a step to the
// free pool. The dead band between them is the hysteresis that keeps
// noisy load from thrashing capacity.
const (
	scaleUpAt   = 0.75
	scaleDownAt = 0.25
)

// TenantLoad is one model's observation for a planning pass.
type TenantLoad struct {
	// Name identifies the model (and keys deterministic tie-breaks).
	Name string
	// Active is the model's current replica steps; Min/Max bound what
	// the planner may assign (Min is floored at one serving replica,
	// Max <= 0 means unbounded).
	Active, Min, Max int
	// UnitWeight is the capacity cost of one replica step in fleet
	// units (servers) — a model sharded N ways consumes N servers per
	// step. <= 0 defaults to 1.
	UnitWeight float64
	// QueueFrac is the model's admission-queue depth over its capacity
	// (0..1), BusyFrac its executor busy time over the window's wall
	// time. Pressure takes the worst of the two.
	QueueFrac, BusyFrac float64
	// ShedDelta is how many requests the model shed during the window;
	// any shedding pins pressure to 1 (the SLA is already bleeding —
	// queue and busy fractions are moot).
	ShedDelta uint64
	// Unhealthy counts the model's ejected replicas; a model with no
	// healthy replica cannot seed a snapshot rebuild and is skipped.
	Unhealthy int
}

// Pressure is the planner's scalar demand signal for one model.
func Pressure(l TenantLoad) float64 {
	p := l.QueueFrac
	if l.BusyFrac > p {
		p = l.BusyFrac
	}
	if l.ShedDelta > 0 && p < 1 {
		p = 1
	}
	return p
}

// Move is one planned replica-step change for one model.
type Move struct {
	Model    string
	From, To int
	// Reason is a short operator-facing note ("pressure 1.00 >= 0.75",
	// "idle reclaim (pressure 0.05 <= 0.25)").
	Reason string
}

// Grow reports whether the move adds a replica step.
func (m Move) Grow() bool { return m.To > m.From }

func (m Move) String() string {
	return fmt.Sprintf("%s %d->%d (%s)", m.Model, m.From, m.To, m.Reason)
}

// PlanElastic maps one window's loads to at most one replica move:
// each move is a snapshot rebuild or a drain, and a pass that reshapes
// the fleet at once trades a long disruption for signals that were only
// ever one window old. freeUnits is the fleet capacity (servers) not
// currently assigned to any model. The hottest claimant whose step the
// free pool covers grows by one step. With no such claim, the coldest
// idle model returns one step to the pool, so a later pass can grant a
// claim the pool could not cover. No model plans below max(1, Min) or
// above Max.
func PlanElastic(loads []TenantLoad, freeUnits float64) []Move {
	var claim, idle *TenantLoad
	var claimP, idleP float64
	for i := range loads {
		l := &loads[i]
		p := Pressure(*l)
		weight := l.UnitWeight
		if weight <= 0 {
			weight = 1
		}
		// A claimant needs room under Max, a healthy peer to seed the
		// rebuild, and a free pool that covers its step.
		if p >= scaleUpAt && (l.Max <= 0 || l.Active < l.Max) && l.Unhealthy < l.Active &&
			weight-freeUnits <= 1e-9 &&
			(claim == nil || p > claimP || p == claimP && l.Name < claim.Name) {
			claim, claimP = l, p
		}
		if p <= scaleDownAt && l.Active > max(1, l.Min) &&
			(idle == nil || p < idleP || p == idleP && l.Name < idle.Name) {
			idle, idleP = l, p
		}
	}
	switch {
	case claim != nil:
		return []Move{{
			Model: claim.Name, From: claim.Active, To: claim.Active + 1,
			Reason: fmt.Sprintf("pressure %.2f >= %.2f", claimP, scaleUpAt),
		}}
	case idle != nil:
		return []Move{{
			Model: idle.Name, From: idle.Active, To: idle.Active - 1,
			Reason: fmt.Sprintf("idle reclaim (pressure %.2f <= %.2f)", idleP, scaleDownAt),
		}}
	}
	return nil
}
