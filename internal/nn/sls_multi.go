package nn

import (
	"fmt"

	"repro/internal/embedding"
)

// SLSEntry is one table's lookup inside a MultiSLS op: the bags to pool
// and the len(Bags)×Dim floats the pooled rows are written to.
type SLSEntry struct {
	Table embedding.Table
	Bags  []embedding.Bag
	Out   []float32
}

// MultiSLS executes SparseLengthsSum for a group of tables in one
// operator, recording a single trace span so span volume tracks operator
// *groups* rather than the 257 tables of DRM1. Sparse shards run one per
// request, and hand it bags and output storage directly instead of
// through named workspace blobs: the outputs are regions of the response
// being built, so pooling writes the wire bytes' final resting place.
type MultiSLS struct {
	OpName  string
	Entries []SLSEntry
}

// Name implements Op.
func (o *MultiSLS) Name() string { return o.OpName }

// Kind implements Op.
func (o *MultiSLS) Kind() OpKind { return KindSparse }

// Run implements Op. A wrongly sized Out or an out-of-range index panics
// inside embedding.SLS; the net scheduler turns that into the request's
// error.
func (o *MultiSLS) Run(*Workspace) error {
	for i := range o.Entries {
		e := &o.Entries[i]
		embedding.SLS(e.Out, e.Table, e.Bags)
	}
	return nil
}

// HashAllBags hashes a group of raw-ID bag inputs into table-bucket
// index bags, one table per entry, in a single fused operator (same
// span-volume rationale as MultiSLS).
type HashAllBags struct {
	OpName  string
	Entries []HashEntry
}

// HashEntry is one feature's hashing task.
type HashEntry struct {
	Buckets       int32
	Input, Output string
}

// Name implements Op.
func (o *HashAllBags) Name() string { return o.OpName }

// Kind implements Op.
func (o *HashAllBags) Kind() OpKind { return KindHash }

// Run implements Op.
func (o *HashAllBags) Run(ws *Workspace) error {
	for i := range o.Entries {
		e := &o.Entries[i]
		if e.Buckets <= 0 {
			return fmt.Errorf("%s[%d]: buckets %d <= 0", o.OpName, i, e.Buckets)
		}
		in, err := ws.Bags(e.Input)
		if err != nil {
			return fmt.Errorf("%s[%d]: %w", o.OpName, i, err)
		}
		// One flat allocation per table, sub-sliced per bag: the hash op
		// runs for every table on every batch, so per-bag allocations
		// would dominate its cost.
		total := 0
		for _, bag := range in {
			total += len(bag.Indices)
		}
		flat := make([]int32, 0, total)
		out := make([]embedding.Bag, len(in))
		for b, bag := range in {
			if len(bag.Indices) == 0 {
				continue
			}
			lo := len(flat)
			for _, id := range bag.Indices {
				flat = append(flat, hash32(id)%e.Buckets)
			}
			out[b].Indices = flat[lo:len(flat):len(flat)]
		}
		ws.SetBags(e.Output, out)
	}
	return nil
}
