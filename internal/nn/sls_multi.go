package nn

import (
	"fmt"

	"repro/internal/embedding"
)

// MultiSLS executes SparseLengthsSum for a group of tables in one
// operator, recording a single trace span so span volume tracks operator
// *groups* rather than the 257 tables of DRM1. Sparse shards run one per
// net of a request, and hand it flat bag lists — views of the request
// body — and output storage directly instead of through named workspace
// blobs: the outputs are the packed regions of the response being built
// — one row per non-empty bag — so pooling reads the wire bytes where
// they arrived and writes the wire bytes' final resting place.
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

// HashAllBags hashes a group of raw-ID inputs into table-bucket indices,
// one table per entry, in a single fused operator (same span-volume
// rationale as MultiSLS). Hashing is index by index and leaves the bag
// structure alone, so the op sees flat index arrays only: a bag list's
// lengths serve its raw and its hashed indices alike. Like MultiSLS it is
// handed its operands directly: the engine runs one per request, at
// admission, before any batch workspace exists, and every batch reads
// row ranges of the result.
type HashAllBags struct {
	OpName  string
	Entries []HashEntry
}

// HashEntry is one feature's hashing task: In's raw IDs hashed into
// [0, Buckets). In is only read — it may be a view of the request's
// frame; Run sets Out to len(In) fresh indices.
type HashEntry struct {
	Buckets int32
	In, Out []int32
}

// Name implements Op.
func (o *HashAllBags) Name() string { return o.OpName }

// Kind implements Op.
func (o *HashAllBags) Kind() OpKind { return KindHash }

// Run implements Op. Every entry's output is a capacity-capped range of
// one flat array: the op runs over every table of every request, so an
// allocation per table would dominate its cost, and each index is
// written exactly once.
func (o *HashAllBags) Run(*Workspace) error {
	indices := 0
	for i := range o.Entries {
		e := &o.Entries[i]
		if e.Buckets <= 0 {
			return fmt.Errorf("%s[%d]: buckets %d <= 0", o.OpName, i, e.Buckets)
		}
		indices += len(e.In)
	}
	flat := make([]int32, indices)
	for i := range o.Entries {
		e := &o.Entries[i]
		k := len(e.In)
		e.Out, flat = flat[:k:k], flat[k:]
		for j, id := range e.In {
			e.Out[j] = hash32(id) % e.Buckets
		}
	}
	return nil
}
