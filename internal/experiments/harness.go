package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The deployment-under-test harness. Every number in this package is got
// the way the paper gets its own (§V–VII): boot a sharding configuration,
// replay the identical request trace through it, read the cross-layer
// trace, compare against a control. deploy, replay, breakdowns and
// sameScores are that procedure, written once.

// subject is one booted deployment with a client dialed to its door.
type subject struct {
	cl     *cluster.Cluster
	client *rpc.Client
	rep    *serve.Replayer
	boot   time.Duration // what cluster.Boot took
}

// deploy boots plan under the runner's seed, dials the main shard and
// replays warm through it. The plan is shared, never written: a rebalance
// gives its cluster a new one (sharding.ApplyMoves copies).
func (r *Runner) deploy(m *model.Model, plan *sharding.Plan, opts cluster.Options, warm []*workload.Request) (*subject, error) {
	opts.Seed = r.P.Seed
	if opts.SpanCapacity == 0 {
		opts.SpanCapacity = 1 << 18 // breakdowns reads every span back
	}
	t0 := time.Now()
	cl, err := cluster.Boot(m, plan, opts)
	if err != nil {
		return nil, err
	}
	s := &subject{cl: cl, boot: time.Since(t0)}
	if s.client, err = cl.DialMain(); err != nil {
		s.Close()
		return nil, err
	}
	s.rep = serve.NewReplayer(s.client)
	if _, err := s.replay(warm, 0); err != nil {
		s.Close()
		return nil, fmt.Errorf("warmup: %w", err)
	}
	return s, nil
}

// Close tears the subject down, client first; safe after a failed deploy.
func (s *subject) Close() {
	if s.client != nil {
		s.client.Close()
	}
	s.cl.Close()
}

// at runs fn just before request i of a serial replay is sent: how a sweep
// injects a replica kill, a rebuild or a control-plane pass mid-stream.
type at struct {
	i  int
	fn func() error
}

// pass is what one replay observed from the client's side.
type pass struct {
	*serve.Result
	// scores holds a serial pass's responses in request order, nil where
	// the deployment shed the request; an open-loop pass keeps none.
	scores  [][]float32
	elapsed time.Duration
	boot    time.Duration // on a control's pass: what booting its deployment took
}

// replay clears the traces and sends reqs — one at a time when qps is 0
// (the only mode that runs hooks and keeps scores), else open loop at qps.
// A request that fails outright (a shed is not a failure) is an error.
func (s *subject) replay(reqs []*workload.Request, qps float64, hooks ...at) (*pass, error) {
	s.cl.ResetTraces()
	p := &pass{Result: &serve.Result{}}
	t0 := time.Now()
	if qps > 0 {
		p.Result = s.rep.RunOpenLoop(reqs, qps)
	} else {
		p.scores = make([][]float32, len(reqs))
		for i, req := range reqs {
			for _, h := range hooks {
				if h.i == i {
					if err := h.fn(); err != nil {
						return nil, err
					}
				}
			}
			scores, d, err := s.rep.Send(req)
			p.Sent++
			switch {
			case err == nil:
				p.scores[i] = scores
				p.ClientE2E = append(p.ClientE2E, d)
			case serve.IsFallback(err):
				p.Fallbacks++
			default:
				p.Errors = append(p.Errors, err)
			}
		}
	}
	p.elapsed = time.Since(t0)
	if p.Failed() > 0 {
		return nil, fmt.Errorf("%d/%d requests failed: %v", p.Failed(), p.Sent, p.Errors[0])
	}
	return p, nil
}

// control replays stream through an undisturbed deployment, once per key
// and runner: the scores a sweep's disturbed subjects are compared to, and
// the latencies its budgets are calibrated on.
func (r *Runner) control(key string, m *model.Model, plan *sharding.Plan, opts cluster.Options, warm, stream []*workload.Request) (*pass, error) {
	if p, ok := r.controls[key]; ok {
		return p, nil
	}
	s, err := r.deploy(m, plan, opts, warm)
	if err != nil {
		return nil, fmt.Errorf("%s control: %w", key, err)
	}
	defer s.Close()
	p, err := s.replay(stream, 0)
	if err != nil {
		return nil, fmt.Errorf("%s control: %w", key, err)
	}
	p.boot = s.boot
	r.controls[key] = p
	return p, nil
}

// breakdowns attributes the last replay's spans request by request, and
// hands back the spans it read. Attribution is only complete when no
// recorder dropped a span — the precondition of the paper's method — so
// this is the package's one Gather and every figure gets the check.
func (s *subject) breakdowns() ([]trace.RequestBreakdown, []trace.Span, error) {
	spans := s.cl.Collector.Gather()
	if drops := s.cl.Collector.TotalDrops(); drops > 0 {
		return nil, nil, fmt.Errorf("%d spans dropped; raise SpanCapacity", drops)
	}
	return trace.Analyze(spans, "main"), spans, nil
}

// replayTraced is a replay and its breakdowns in one step.
func (s *subject) replayTraced(reqs []*workload.Request, qps float64) (*pass, []trace.RequestBreakdown, error) {
	p, err := s.replay(reqs, qps)
	if err != nil {
		return nil, nil, err
	}
	bs, _, err := s.breakdowns()
	return p, bs, err
}

// sameScores is the bitwise comparator: got against a control's want,
// naming the first difference. A request got shed (nil) received the
// fallback, not wrong scores, and is skipped.
func sameScores(want, got [][]float32) error {
	if len(want) != len(got) {
		return fmt.Errorf("scored %d requests, control scored %d", len(got), len(want))
	}
	for i := range want {
		if got[i] == nil {
			continue
		}
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("request %d: %d scores, control has %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if w, g := math.Float32bits(want[i][j]), math.Float32bits(got[i][j]); w != g {
				return fmt.Errorf("request %d item %d: score bits %08x, control %08x", i, j, g, w)
			}
		}
	}
	return nil
}

// Verdict is one headline claim of a sweep, judged on the rows it measured.
type Verdict struct {
	Name   string // the claim
	OK     bool
	Detail string // the measured figures behind OK
}

func (v Verdict) String() string {
	if v.OK {
		return v.Name + ": " + v.Detail
	}
	return v.Name + ": NOT reproduced in this run: " + v.Detail
}

// verdicts is embedded in every sweep's result.
type verdicts []Verdict

func (vs *verdicts) claim(name string, ok bool, format string, args ...any) {
	*vs = append(*vs, Verdict{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// claimEvery judges a claim that is about some of a sweep's rows: it holds
// when every row it is about held. No such row, no claim.
func claimEvery[R any](vs *verdicts, name string, rows []R, about, held func(R) bool, what string) {
	n, ok := 0, 0
	for _, row := range rows {
		if about(row) {
			n++
			if held(row) {
				ok++
			}
		}
	}
	if n > 0 {
		vs.claim(name, ok == n, "%d/%d %s", ok, n, what)
	}
}

func (vs verdicts) claims() []Verdict { return vs }

// print renders the claims, one line each, where a sweep's render puts them.
func (vs verdicts) print(w io.Writer) {
	for _, v := range vs {
		fmt.Fprintf(w, "verdict — %s\n", v)
	}
}

// sweep is what a measureX returns: rows to render, claims to keep.
type sweep interface {
	render(w io.Writer)
	claims() []Verdict
}

// present renders a measured sweep and books its verdicts under id.
func (r *Runner) present(w io.Writer, id string, s sweep, err error) error {
	if err != nil {
		return err
	}
	s.render(w)
	for _, v := range s.claims() {
		v.Name = id + ": " + v.Name
		r.verdicts = append(r.verdicts, v)
	}
	return nil
}
