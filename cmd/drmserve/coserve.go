// The coserve role: one process hosts several ranking models on a
// shared fleet behind a single front door. Each repeated -model flag is
// one tenant spec; the elastic scheduler (enabled by -elastic-every)
// moves replica capacity between tenants from live load signals, and
// -scale forces a move for the CI smoke.
//
//	drmserve -role coserve \
//	    -model 'DRM1:sla=6ms,replicas=2,slots=3' \
//	    -model 'drm2b=DRM2:sla=8ms' \
//	    -capacity 10 -elastic-every 500ms -metrics-addr 127.0.0.1:9100
//
// Tenants are driven through the shared door with rank@<tenant>
// (cmd/replayer -tenant).
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// modelFlags makes -model repeatable: the single-model roles read the
// first value as the model name, the coserve role treats every value as
// one tenant spec.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }

func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// primary is the single-model roles' model name (default DRM1).
func (m modelFlags) primary() string {
	if len(m) == 0 {
		return "DRM1"
	}
	name, _, _ := strings.Cut(m[0], ":")
	return strings.TrimSpace(name)
}

// tenantFlagSpec is one -model tenant spec being parsed: the TenantSpec
// it fills, plus the keys that only pick its plan. The zero
// keys of a spec inherit the process-wide flags (-sla, -max-queue,
// -batch-wait, -batch-reqs, -shards, -strategy), so common tuning is
// written once.
type tenantFlagSpec struct {
	cluster.TenantSpec
	strategy string
	shards   int
}

// parseTenantSpec parses "NAME[=MODEL][:key=val,...]" over defaults d and
// derives the tenant's plan (run builds its model). NAME names the
// tenant (the rank@NAME route and model= obs label) and, without =MODEL,
// doubles as the model; NAME=MODEL hosts a tenant copy of MODEL under its
// own name.
func parseTenantSpec(s string, d tenantFlagSpec) (cluster.TenantSpec, error) {
	out := d
	head, opts, hasOpts := strings.Cut(s, ":")
	head = strings.TrimSpace(head)
	name, mod, ok := strings.Cut(head, "=")
	if !ok {
		mod = head
	}
	if out.Name = strings.TrimSpace(name); out.Name == "" {
		return out.TenantSpec, fmt.Errorf("tenant spec %q has no name", s)
	}
	cfg, err := modelConfig(strings.TrimSpace(mod))
	if err != nil {
		return out.TenantSpec, fmt.Errorf("tenant spec %q: %w", s, err)
	}
	if hasOpts {
		for _, kv := range strings.Split(opts, ",") {
			if err := out.set(kv); err != nil {
				return out.TenantSpec, fmt.Errorf("tenant spec %q: %w", s, err)
			}
		}
	}
	out.Plan, err = sharding.ByStrategy(&cfg, out.strategy, out.shards, workload.DeploymentPooling(cfg))
	if err != nil {
		return out.TenantSpec, fmt.Errorf("tenant %s: %w", out.Name, err)
	}
	return out.TenantSpec, nil
}

// set applies one key=val option of a tenant spec.
func (t *tenantFlagSpec) set(kv string) error {
	k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
	if !ok || v == "" {
		return fmt.Errorf("bad option %q (want key=val)", kv)
	}
	var err error
	switch k {
	case "sla":
		t.Frontend.Budget, err = time.ParseDuration(v)
	case "batch-wait":
		t.Frontend.BatchWait, err = time.ParseDuration(v)
	case "queue":
		t.Frontend.MaxQueue, err = strconv.Atoi(v)
	case "batch-reqs":
		t.Frontend.MaxBatchRequests, err = strconv.Atoi(v)
	case "shards":
		t.shards, err = strconv.Atoi(v)
	case "strategy":
		t.strategy = v
	case "replicas":
		t.InitialReplicas, err = strconv.Atoi(v)
	case "slots":
		t.SlotReplicas, err = strconv.Atoi(v)
	case "min":
		t.MinReplicas, err = strconv.Atoi(v)
	case "max":
		t.MaxReplicas, err = strconv.Atoi(v)
	default:
		return fmt.Errorf("unknown option %q", k)
	}
	if err != nil {
		return fmt.Errorf("option %q: %w", kv, err)
	}
	return nil
}

// parseScale parses the -scale flag's "MODEL=N" ("", 0 when unset).
func parseScale(s string) (string, int, error) {
	if s == "" {
		return "", 0, nil
	}
	name, nStr, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return "", 0, fmt.Errorf("-scale %q: want MODEL=N", s)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 1 {
		return "", 0, fmt.Errorf("-scale %q: bad replica count %q", s, nStr)
	}
	return name, n, nil
}

// forceScaleAfter applies the -scale override once the fleet has had
// -scale-after of live traffic, and reports the executed move.
func forceScaleAfter(fl *cluster.Fleet, name string, to int, after time.Duration) {
	time.Sleep(after)
	if err := fl.ForceScale(name, to); err != nil {
		fmt.Fprintln(os.Stderr, "drmserve: forced scale:", err)
		return
	}
	tl := fl.Timeline()
	if len(tl) == 0 {
		fmt.Printf("drmserve: forced scale %s: already at %d replicas\n", name, to)
		return
	}
	ev := tl[len(tl)-1]
	fmt.Printf("drmserve: forced scale %s %d->%d (%d snapshot bytes in %v)\n",
		ev.Model, ev.From, ev.To, ev.RebuildBytes, ev.Took.Round(time.Microsecond))
}

// serveCoserve builds every tenant's model and boots the fleet.
func serveCoserve(c *config) (*cluster.Fleet, error) {
	for i := range c.tenants {
		c.tenants[i].Model = model.Build(model.ByName(c.tenants[i].Plan.ModelName))
	}
	fl, err := cluster.BootFleet(c.tenants, c.fleet)
	if err != nil {
		return nil, err
	}
	for i, name := range fl.Names() {
		cl, spec := fl.TenantCluster(name), c.tenants[i]
		fmt.Printf("drmserve: tenant %s serves %s (%s): %d/%d replicas active, sla=%v\n",
			name, spec.Plan.ModelName, spec.Plan.Name(),
			cl.ActiveReplicas(), cl.ReplicaSlots(), spec.Frontend.Budget)
	}
	elastic := "elastic scheduler off"
	if c.fleet.Interval > 0 {
		elastic = fmt.Sprintf("elastic every %v", c.fleet.Interval)
	}
	fmt.Printf("drmserve: coserve front door on %s hosting %d models (%s)\n",
		fl.Addr(), len(c.tenants), elastic)
	return fl, nil
}
