// Command drmserve runs one shard of a distributed recommendation
// inference deployment as a standalone process: either the main shard
// (dense layers + RPC fan-out) or one sparse shard (embedding tables).
// Each role is assembled by internal/cluster — the same code cluster.Boot
// composes in-process — so this file is flags → cluster.Options → role.
// A role draws only what it serves: a distributed plan's main the dense
// nets, a sparse role its shard's tables (none under -shard-dir).
//
// Every process derives the identical sharding plan from the same flags
// (models and pooling estimation are deterministic), so a deployment is
// just N+1 processes agreeing on -model/-strategy/-shards:
//
//	drmserve -role sparse -shard 1 -model DRM1 -strategy load-bal -shards 2 -listen 127.0.0.1:7101
//	drmserve -role sparse -shard 2 -model DRM1 -strategy load-bal -shards 2 -listen 127.0.0.1:7102
//	drmserve -role main -model DRM1 -strategy load-bal -shards 2 \
//	    -listen 127.0.0.1:7100 -peers sparse1=127.0.0.1:7101,sparse2=127.0.0.1:7102
//
// Then drive it with cmd/replayer against 127.0.0.1:7100.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// config is a parsed command line: what run assembles and serves.
type config struct {
	role   string
	listen string
	netsim bool

	// The model (each role draws what it serves), its plan, the sparse
	// role's shard number and the main role's -peers bindings in flag
	// order (a service's first address is its primary, the rest hedge
	// replicas).
	model model.Config
	plan  *sharding.Plan
	shard int
	peers map[string][]string
	// opts goes to the role assemblers as parsed; run adds Obs.
	opts cluster.Options

	// The main role's control loop.
	rebalanceEvery, publishEvery time.Duration
	moveBudget, publishRows      int

	metricsAddr string
	metricsLog  time.Duration
}

func main() {
	c, err := parse(os.Args[1:])
	if err == nil {
		err = run(c)
	}
	if err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "drmserve:", err)
		os.Exit(1)
	}
}

// parse turns a command line into a config, refusing what no role could
// serve. It builds no model and opens nothing.
func parse(args []string) (*config, error) {
	c := &config{}
	var (
		fe                                   frontend.Config
		modelName, strategy, coldPrec, peers string
		shards                               int
		cacheMB, errBudget                   float64
	)
	fs := flag.NewFlagSet("drmserve", flag.ContinueOnError)
	fs.StringVar(&c.role, "role", "main", "shard role: main or sparse")
	fs.IntVar(&c.shard, "shard", 1, "sparse shard number (1-based)")
	fs.StringVar(&strategy, "strategy", "load-bal", "sharding strategy")
	fs.IntVar(&shards, "shards", 2, "sparse shard count")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:0", "listen address")
	fs.StringVar(&c.opts.ShardDir, "shard-dir", "", "sparse role: serve from the v2 shard file <dir>/<model>.shardN, mmap-backed (shardtool export-v2)")
	fs.StringVar(&peers, "peers", "", "main role: comma-separated sparseN=host:port bindings; repeat a name to add hedge replicas")
	fs.BoolVar(&c.netsim, "netsim", false, "inject data-center link latency")

	// SLA-aware frontend (main role). Any of
	// -batch-wait/-batch-reqs/-max-queue/-sla enables it; all unset, the
	// main shard serves one request per call.
	fs.DurationVar(&fe.BatchWait, "batch-wait", 0, "dynamic batching window (enables the serving frontend)")
	fs.IntVar(&fe.MaxBatchRequests, "batch-reqs", 0, "max requests coalesced per engine execution, default 16 (enables the serving frontend)")
	fs.IntVar(&fe.MaxQueue, "max-queue", 0, "bounded admission queue depth (enables the serving frontend)")
	fs.DurationVar(&fe.Budget, "sla", 0, "per-request SLA budget for admission control (enables the serving frontend)")
	fs.DurationVar(&c.opts.HedgeDelay, "hedge", 0, "hedge sparse RPCs against a peer replica after this delay (needs repeated -peers names)")
	fs.IntVar(&c.opts.MainMaxInFlight, "max-inflight", 0, "main role: reject requests beyond this many in flight (0 = unbounded)")

	// Health-aware replica management (main role, with hedge replicas):
	// eject a replica from the rotation after consecutive failures,
	// re-admit it through probation probes.
	fs.IntVar(&c.opts.HealthFails, "health-fails", 0, "eject a hedge replica after this many consecutive failures (0 disables; needs repeated -peers names)")
	fs.DurationVar(&c.opts.HealthProbe, "health-probe", 0, "probation probe interval for ejected replicas (default 250ms)")

	// Online resharding (main role): periodically plan on the lookups the
	// main shard has sent each unit and migrate tables live toward balance.
	fs.DurationVar(&c.rebalanceEvery, "rebalance-every", 0, "main role: run a capacity-driven rebalance pass at this interval (0 disables)")
	fs.IntVar(&c.moveBudget, "move-budget", 4, "max table moves per rebalance pass")

	// Online model freshness (main role): periodically publish a versioned
	// delta set to every sparse peer as a staged transaction.
	fs.DurationVar(&c.publishEvery, "publish-every", 0, "main role: publish an identity delta set (freshness load, no score impact) at this interval (0 disables)")
	fs.IntVar(&c.publishRows, "publish-rows", 16, "rows republished per table per publish tick")

	// Tiered embedding storage (sparse role): a hot-row cache byte budget
	// in front of a quantized cold tier.
	fs.Float64Var(&cacheMB, "cache-mb", 0, "sparse role: hot-row cache budget in MiB over the fp32/fp16 cold tiers, split across those tables by their cold-tier bytes (0 disables; an int8 tier is never cached)")
	fs.StringVar(&coldPrec, "cold-precision", "fp32", "sparse role: cold-tier storage precision: fp32, fp16, or int8")
	fs.Float64Var(&errBudget, "error-budget", 0, "sparse role: max quantization error as a fraction of value scale (0 = default 1/250)")

	// Live telemetry: the obs registry aggregates per-stage counters and
	// latency histograms; sampled request tracing adds end-to-end stage
	// breakdowns for one of every -trace-sample requests.
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve live metrics over HTTP: /metrics (text), /metrics.json, /traces, /debug/pprof/ (empty disables)")
	fs.IntVar(&c.opts.TraceSample, "trace-sample", 0, "main role: live-sample one of every N requests into a stage-breakdown trace (0 disables; deadline misses always sampled)")
	fs.DurationVar(&c.metricsLog, "metrics-log", 0, "log a metrics snapshot diff to stderr at this interval (0 disables)")
	fs.StringVar(&modelName, "model", "DRM1", "model to serve: DRM1, DRM2, DRM3")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if err := c.opts.Validate(); err != nil {
		return nil, fmt.Errorf("-health-fails without -hedge: %w", err)
	}
	if c.role != "main" && c.role != "sparse" {
		return nil, fmt.Errorf("unknown role %q", c.role)
	}
	var err error
	if c.model, err = modelConfig(modelName); err != nil {
		return nil, err
	}
	if c.plan, err = sharding.ByStrategy(&c.model, strategy, shards, workload.DeploymentPooling(c.model)); err != nil {
		return nil, err
	}
	if c.opts.Tier, err = buildTier(&c.model, cacheMB, coldPrec, errBudget); err != nil {
		return nil, err
	}
	if c.peers, err = parsePeers(peers); err != nil {
		return nil, err
	}
	if fe != (frontend.Config{}) {
		c.opts.Frontend = &fe
	}
	// Nothing in this process reads a recorder's store (/traces is fed
	// by the sink tee, ahead of it): keep no spans.
	c.opts.SpanCapacity = 1
	if c.role == "main" {
		if err := c.checkControlPeers(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// modelConfig resolves a -model name, in any letter case.
func modelConfig(name string) (model.Config, error) {
	for _, n := range model.Names() {
		if strings.EqualFold(n, name) {
			return model.ByName(n), nil
		}
	}
	return model.Config{}, fmt.Errorf("unknown model %q (want %s)", name, strings.Join(model.Names(), ", "))
}

// buildTier translates the tiered-storage flags into a shard tier
// config; nil when tiering is entirely off.
func buildTier(cfg *model.Config, cacheMB float64, coldPrec string, errBudget float64) (*core.TierConfig, error) {
	prec, err := sharding.ParsePrecision(coldPrec)
	if err != nil {
		return nil, err
	}
	if cacheMB < 0 {
		return nil, fmt.Errorf("-cache-mb %g < 0", cacheMB)
	}
	if cacheMB == 0 && prec == sharding.PrecisionFP32 {
		return nil, nil
	}
	return &core.TierConfig{
		CacheMB: cacheMB,
		Plan:    sharding.PlanTiers(cfg, sharding.TierOptions{ColdPrecision: prec, ErrorBudget: errBudget}),
	}, nil
}

// parsePeers parses -peers: name=addr bindings, in order; a repeated
// name adds hedge replicas for that service (first binding is the
// primary).
func parsePeers(s string) (map[string][]string, error) {
	peers := make(map[string][]string)
	if s == "" {
		return peers, nil
	}
	for _, binding := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(binding), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer binding %q (want name=addr)", binding)
		}
		peers[name] = append(peers[name], addr)
	}
	return peers, nil
}

// checkControlPeers refuses a control loop the -peers bindings cannot
// carry.
func (c *config) checkControlPeers() error {
	if !c.plan.IsDistributed() {
		return nil
	}
	for i := 1; i <= c.plan.NumShards; i++ {
		name := core.ServiceName(i)
		switch addrs := c.peers[name]; {
		case c.rebalanceEvery > 0 && len(addrs) == 0:
			return fmt.Errorf("-rebalance-every needs every shard in -peers; %s missing", name)
		case c.publishEvery > 0 && len(addrs) == 0:
			return fmt.Errorf("-publish-every needs every shard in -peers; %s missing", name)
		case c.rebalanceEvery > 0 && len(addrs) > 1:
			// Standalone replicas are separate processes with separate table
			// stores; migrating only the primary would leave the replicas
			// stale and turn every hedge into a miss. (The in-process cluster
			// is exempt: its replicas share one store.)
			return fmt.Errorf("-rebalance-every does not support hedge replicas yet (%s has %d addresses)", name, len(addrs))
		}
	}
	return nil
}

// run assembles the configured role, serves until SIGINT/SIGTERM, and
// tears down.
func run(c *config) error {
	// The registry only pays for itself when something reads it; with no
	// exporter and no tracing it discards, and every instrumented path in
	// the process degrades to a nil-handle branch.
	reg := obs.Discard()
	if c.metricsAddr != "" || c.metricsLog > 0 || c.opts.TraceSample > 0 {
		reg = obs.NewRegistry()
	}
	c.opts.Obs = reg

	var tracer *obs.Tracer
	var shutdown func()
	switch c.role {
	case "sparse":
		var link *netsim.Link
		if c.netsim {
			link = platform.SCLarge().Network(int64(c.shard)).Response
		}
		s, err := cluster.ServeSparse(c.model, c.plan, c.shard, c.listen, link, c.opts)
		if err != nil {
			return err
		}
		shutdown = s.Close
		ts := s.Store.TierSnapshot()
		fmt.Printf("drmserve: %s holds %d tables/parts (%d fp32 / %d fp16 / %d int8), %.1f MiB\n",
			s.Store.ShardName, ts.Tables, ts.FP32, ts.FP16, ts.Int8, float64(s.Store.Bytes())/(1<<20))
		fmt.Printf("drmserve: sparse shard serving %s (%s) on %s\n", c.model.Name, c.plan.Name(), s.Server.Addr())
	case "main":
		var link *netsim.Link
		if c.netsim {
			link = platform.SCLarge().Network(7).Request
		}
		mn, err := cluster.StartMain(c.model, c.plan, c.listen, c.peers, link, c.opts)
		if err != nil {
			return err
		}
		stopControl, err := c.startControl(mn)
		if err != nil {
			mn.Close()
			return err
		}
		tracer = mn.Tracer
		shutdown = func() { stopControl(); mn.Close() }
		if fe := c.opts.Frontend; fe != nil {
			fmt.Printf("drmserve: SLA frontend enabled (wait=%v queue=%d budget=%v)\n", fe.BatchWait, fe.MaxQueue, fe.Budget)
		}
		fmt.Printf("drmserve: main shard serving %s (%s) on %s\n", c.model.Name, c.plan.Name(), mn.Server.Addr())
	}
	defer shutdown()

	if c.metricsAddr != "" {
		bound, stopHTTP, err := obs.Serve(c.metricsAddr, reg, tracer)
		if err != nil {
			return err
		}
		defer stopHTTP()
		fmt.Printf("drmserve: metrics on http://%s/metrics (/metrics.json, /traces, /debug/pprof/)\n", bound)
	}
	if c.metricsLog > 0 {
		defer obs.StartLogger(reg, os.Stderr, c.metricsLog)()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

// startControl starts the main role's periodic control-plane drivers —
// rebalance passes and identity-delta publishes — and returns their
// stop. Both change shard table sets in several wire steps, so they run
// from one loop and never interleave: a publish landing between a
// migration's reads and its cutover would be missing from the moved copy.
func (c *config) startControl(mn *cluster.Main) (stop func(), err error) {
	if !c.plan.IsDistributed() || (c.rebalanceEvery <= 0 && c.publishEvery <= 0) {
		return func() {}, nil
	}
	// Every -peers address is its own table store: standalone replicas are
	// separate processes, and a publish must make all of them fresh.
	stores := make([][]string, c.plan.NumShards)
	for i := range stores {
		stores[i] = c.peers[core.ServiceName(i+1)]
	}
	cp := &cluster.ControlPlane{}
	mg, pub, err := cp.Drivers(mn, stores)
	if err != nil {
		cp.Close()
		return nil, err
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.controlLoop(quit, mg, pub)
	}()
	return func() { close(quit); <-done; cp.Close() }, nil
}

// controlLoop runs the control-plane drivers one at a time until quit
// closes. A disabled driver's ticker channel stays nil and never fires.
func (c *config) controlLoop(quit <-chan struct{}, mg *core.Migrator, pub *core.Publisher) {
	var rebalance, publish <-chan time.Time
	if c.rebalanceEvery > 0 {
		fmt.Printf("drmserve: online resharding every %v (move budget %d)\n", c.rebalanceEvery, c.moveBudget)
		t := time.NewTicker(c.rebalanceEvery)
		defer t.Stop()
		rebalance = t.C
	}
	if c.publishEvery > 0 {
		fmt.Printf("drmserve: publishing identity deltas every %v (%d rows/table)\n", c.publishEvery, c.publishRows)
		t := time.NewTicker(c.publishEvery)
		defer t.Stop()
		publish = t.C
	}
	version := uint64(0)
	for {
		select {
		case <-quit:
			return
		case <-rebalance:
			report, err := mg.Rebalance(sharding.RebalanceOptions{MoveBudget: c.moveBudget})
			if err != nil {
				fmt.Fprintln(os.Stderr, "drmserve: rebalance:", err)
				continue
			}
			fmt.Println("drmserve:", report)
		case <-publish:
			version++
			report, err := pub.Publish(core.IdentityDelta(&c.model, nil, version, c.publishRows))
			if err != nil {
				fmt.Fprintln(os.Stderr, "drmserve: publish:", err)
				continue
			}
			fmt.Println("drmserve:", report)
		}
	}
}
