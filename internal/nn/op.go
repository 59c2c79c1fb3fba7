package nn

import (
	"fmt"
	"time"
)

// OpKind groups operators into the attribution classes of the paper's
// Fig. 4 ("Hash, Fill, Scale/Clip, Activations, Sparse, Feature
// Transforms, Memory Transformations, Dense") plus the RPC class
// introduced by distributed inference.
type OpKind int

// Operator attribution classes.
const (
	KindDense OpKind = iota
	KindSparse
	KindActivation
	KindScaleClip
	KindHash
	KindFill
	KindFeatureTransform
	KindMemoryTransform
	KindRPC
	// KindWait marks synchronization points that block on asynchronous
	// results: their duration is the embedded-portion wait, already
	// attributed through RPC-call spans, so analyzers must not count it
	// as operator compute.
	KindWait
)

var kindNames = [...]string{
	KindDense:            "Dense",
	KindSparse:           "Sparse",
	KindActivation:       "Activations",
	KindScaleClip:        "Scale/Clip",
	KindHash:             "Hash",
	KindFill:             "Fill",
	KindFeatureTransform: "Feature Transforms",
	KindMemoryTransform:  "Memory Transformations",
	KindRPC:              "RPC",
	KindWait:             "Wait",
}

// String returns the paper's legend label for the kind.
func (k OpKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "Unknown"
}

// Op is one operator in a net. Run executes synchronously against the
// workspace; an operator that launches asynchronous work leaves its
// completion to its owner (see the package doc), never to the net.
type Op interface {
	// Name identifies the operator instance for traces.
	Name() string
	// Kind is the attribution class.
	Kind() OpKind
	// Run executes (or launches) the operator.
	Run(ws *Workspace) error
}

// Observer receives per-operator timing during a net run. The cross-layer
// tracer implements this; a nil observer disables instrumentation with no
// overhead beyond a branch.
type Observer interface {
	// OpExecuted reports that op ran (synchronously) for dur.
	OpExecuted(netName string, op Op, start time.Time, dur time.Duration)
	// NetFinished reports total wall time and the portion not spent inside
	// synchronous operator Run calls (the paper's "Caffe2 Net Overhead").
	NetFinished(netName string, start time.Time, total, opTime time.Duration)
}

// Net is an ordered operator list, the unit of scheduling. The models in
// the paper have one or two nets (user net and content/product net) that
// must execute sequentially.
type Net struct {
	// NetName identifies the net ("net1", "net2").
	NetName string
	// Ops execute in order.
	Ops []Op
}

// Run executes all operators in order against ws. Per-op wall time is
// reported to obs when non-nil; the residual (total − Σop) is the net
// scheduling overhead the paper attributes to the ML framework layer.
//
// Operator panics (index corruption, storage faults) are converted to
// errors: one bad request must fail its own RPC, not take down a serving
// shard.
func (n *Net) Run(ws *Workspace, obs Observer) error {
	netStart := time.Now()
	var opTime time.Duration
	for _, op := range n.Ops {
		start := time.Now()
		err := runOp(op, ws)
		dur := time.Since(start)
		opTime += dur
		if obs != nil {
			obs.OpExecuted(n.NetName, op, start, dur)
		}
		if err != nil {
			return err
		}
	}
	if obs != nil {
		obs.NetFinished(n.NetName, netStart, time.Since(netStart), opTime)
	}
	return nil
}

// runOp invokes one operator, converting panics into errors.
func runOp(op Op, ws *Workspace) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("nn: operator %s panicked: %v", op.Name(), r)
		}
	}()
	return op.Run(ws)
}
