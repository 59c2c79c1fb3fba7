package cluster_test

import (
	"testing"

	"repro/internal/cluster"
)

// hot/cold/warm are canonical loads for the planner tables.
func load(name string, active int, mut ...func(*cluster.TenantLoad)) cluster.TenantLoad {
	l := cluster.TenantLoad{Name: name, Active: active, Min: 1, Max: 4, UnitWeight: 1}
	for _, m := range mut {
		m(&l)
	}
	return l
}

func hot(l *cluster.TenantLoad)  { l.BusyFrac = 0.95 }
func cold(l *cluster.TenantLoad) { l.BusyFrac = 0.05 }
func warm(l *cluster.TenantLoad) { l.BusyFrac = 0.5 }

// TestPlanElasticTable pins the decision function: hysteresis bounds,
// the one move per pass, affordability, floors, caps, health gating.
func TestPlanElasticTable(t *testing.T) {
	cases := []struct {
		name  string
		loads []cluster.TenantLoad
		free  float64
		want  []cluster.Move // compared on Model/From/To only
	}{
		{
			name:  "hot tenant grows from free pool",
			loads: []cluster.TenantLoad{load("a", 1, hot), load("b", 1, warm)},
			free:  1,
			want:  []cluster.Move{{Model: "a", From: 1, To: 2}},
		},
		{
			name:  "dead band holds: warm tenants make no moves",
			loads: []cluster.TenantLoad{load("a", 2, warm), load("b", 2, warm)},
			free:  2,
			want:  nil,
		},
		{
			name:  "queue occupancy alone can claim",
			loads: []cluster.TenantLoad{load("a", 1, func(l *cluster.TenantLoad) { l.QueueFrac = 0.9 })},
			free:  1,
			want:  []cluster.Move{{Model: "a", From: 1, To: 2}},
		},
		{
			name: "sheds pin pressure to one",
			loads: []cluster.TenantLoad{
				load("a", 1, cold, func(l *cluster.TenantLoad) { l.ShedDelta = 3 }),
			},
			free: 1,
			want: []cluster.Move{{Model: "a", From: 1, To: 2}},
		},
		{
			name:  "budget one cannot afford a paired reallocation",
			loads: []cluster.TenantLoad{load("a", 1, hot), load("b", 2, cold)},
			free:  0,
			// The claim is unaffordable this pass; the pass reclaims the
			// idle donor into the pool instead, so the next pass can grant
			// the claim.
			want: []cluster.Move{{Model: "b", From: 2, To: 1}},
		},
		{
			name: "budget exhaustion grants hottest claimants first",
			loads: []cluster.TenantLoad{
				load("a", 1, func(l *cluster.TenantLoad) { l.BusyFrac = 0.85 }),
				load("b", 1, func(l *cluster.TenantLoad) { l.BusyFrac = 0.95 }),
				load("c", 1, func(l *cluster.TenantLoad) { l.BusyFrac = 0.90 }),
			},
			free: 3,
			want: []cluster.Move{{Model: "b", From: 1, To: 2}},
		},
		{
			name:  "never below one serving replica",
			loads: []cluster.TenantLoad{load("a", 1, hot), load("b", 1, cold)},
			free:  0,
			want:  nil,
		},
		{
			name: "min floor blocks donation",
			loads: []cluster.TenantLoad{
				load("a", 1, hot),
				load("b", 2, cold, func(l *cluster.TenantLoad) { l.Min = 2 }),
			},
			free: 0,
			want: nil,
		},
		{
			name: "max cap blocks the claim",
			loads: []cluster.TenantLoad{
				load("a", 2, hot, func(l *cluster.TenantLoad) { l.Max = 2 }),
			},
			free: 2,
			want: nil,
		},
		{
			name: "no healthy replica means no rebuild seed, no grow",
			loads: []cluster.TenantLoad{
				load("a", 1, hot, func(l *cluster.TenantLoad) { l.Unhealthy = 1 }),
			},
			free: 1,
			want: nil,
		},
		{
			name:  "idle reclaim returns excess to the pool",
			loads: []cluster.TenantLoad{load("a", 3, cold), load("b", 1, warm)},
			free:  0,
			want:  []cluster.Move{{Model: "a", From: 3, To: 2}},
		},
		{
			name:  "one step per tenant per pass",
			loads: []cluster.TenantLoad{load("a", 1, hot)},
			free:  4,
			want:  []cluster.Move{{Model: "a", From: 1, To: 2}},
		},
		{
			name:  "an affordable claim beats a reclaim",
			loads: []cluster.TenantLoad{load("a", 1, hot), load("b", 3, cold)},
			free:  1,
			want:  []cluster.Move{{Model: "a", From: 1, To: 2}},
		},
		{
			name: "an unaffordable claim yields a reclaim",
			loads: []cluster.TenantLoad{
				load("a", 1, hot, func(l *cluster.TenantLoad) { l.UnitWeight = 2 }),
				load("b", 2, cold),
				load("c", 2, warm),
			},
			free: 1,
			want: []cluster.Move{{Model: "b", From: 2, To: 1}},
		},
		{
			name: "a cooler affordable claim beats a hotter unaffordable one",
			loads: []cluster.TenantLoad{
				load("a", 1, hot, func(l *cluster.TenantLoad) { l.UnitWeight = 2 }),
				load("b", 1, func(l *cluster.TenantLoad) { l.BusyFrac = 0.8 }),
			},
			free: 1,
			want: []cluster.Move{{Model: "b", From: 1, To: 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := cluster.PlanElastic(tc.loads, tc.free)
			if len(got) != len(tc.want) {
				t.Fatalf("PlanElastic = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i].Model != tc.want[i].Model || got[i].From != tc.want[i].From || got[i].To != tc.want[i].To {
					t.Errorf("move %d = %v, want %+v", i, got[i], tc.want[i])
				}
				if got[i].Reason == "" {
					t.Errorf("move %d carries no reason", i)
				}
			}
		})
	}
}

// TestPressure pins the demand scalar.
func TestPressure(t *testing.T) {
	if p := cluster.Pressure(cluster.TenantLoad{QueueFrac: 0.3, BusyFrac: 0.6}); p != 0.6 {
		t.Errorf("Pressure = %v, want 0.6 (max of queue and busy)", p)
	}
	if p := cluster.Pressure(cluster.TenantLoad{QueueFrac: 0.1, ShedDelta: 1}); p != 1 {
		t.Errorf("Pressure with sheds = %v, want 1", p)
	}
}
