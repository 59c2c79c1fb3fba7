package nn

import (
	"fmt"

	"repro/internal/embedding"
)

// MultiSLS executes SparseLengthsSum for a group of tables in one
// operator, recording a single trace span so span volume tracks operator
// *groups* rather than the 257 tables of DRM1. Sparse shards run one per
// net of a request, and hand it bags and output storage directly instead
// of through named workspace blobs: the outputs are the packed regions
// of the response being built — one row per non-empty bag — so pooling
// writes the wire bytes' final resting place and nothing else.
type MultiSLS struct {
	OpName  string
	Entries []embedding.PoolEntry
}

// Name implements Op.
func (o *MultiSLS) Name() string { return o.OpName }

// Kind implements Op.
func (o *MultiSLS) Kind() OpKind { return KindSparse }

// Run implements Op. A wrongly sized Out or an out-of-range index panics
// inside embedding.Pool, before anything is pooled; the net scheduler
// turns that into the request's error.
func (o *MultiSLS) Run(*Workspace) error {
	embedding.Pool(o.Entries)
	return nil
}

// HashAllBags hashes a group of raw-ID bag inputs into table-bucket
// index bags, one table per entry, in a single fused operator (same
// span-volume rationale as MultiSLS). Like MultiSLS it is handed its
// operands directly: the engine runs one per request, at admission,
// before any batch workspace exists, and every batch reads row ranges of
// the result.
type HashAllBags struct {
	OpName  string
	Entries []HashEntry
}

// HashEntry is one feature's hashing task: In's raw IDs hashed into
// [0, Buckets). Run sets Out to len(In) bags; empty bags keep nil
// indices.
type HashEntry struct {
	Buckets int32
	In, Out []embedding.Bag
}

// Name implements Op.
func (o *HashAllBags) Name() string { return o.OpName }

// Kind implements Op.
func (o *HashAllBags) Kind() OpKind { return KindHash }

// Run implements Op. Every entry's output shares one header slice and
// one flat index array, handed out as capacity-capped sub-slices: the
// op runs over every table of every request, so an allocation per table
// (let alone per bag) would dominate its cost.
func (o *HashAllBags) Run(*Workspace) error {
	bags, indices := 0, 0
	for i := range o.Entries {
		e := &o.Entries[i]
		if e.Buckets <= 0 {
			return fmt.Errorf("%s[%d]: buckets %d <= 0", o.OpName, i, e.Buckets)
		}
		bags += len(e.In)
		indices += embedding.TotalLookups(e.In)
	}
	out := make([]embedding.Bag, bags)
	flat := make([]int32, indices)
	for i := range o.Entries {
		e := &o.Entries[i]
		e.Out, out = out[:len(e.In):len(e.In)], out[len(e.In):]
		for b, bag := range e.In {
			k := len(bag.Indices)
			if k == 0 {
				continue
			}
			e.Out[b].Indices, flat = flat[:k:k], flat[k:]
			for j, id := range bag.Indices {
				e.Out[b].Indices[j] = hash32(id) % e.Buckets
			}
		}
	}
	return nil
}
