package embedding

import "fmt"

// Bag is one pooled lookup: a set of row indices in a table whose
// embedding vectors are summed (the paper's pooling operation). One
// inference example contributes one bag per sparse feature; the number of
// indices in the bag is that feature's pooling factor for the example.
//
// []Bag is the authoring form — what the workload generator draws and
// tests write. Everything that serves a request reads the flat BagList.
type Bag struct {
	Indices []int32
}

// BagList is a list of bags in flat form, the form they have on the wire
// and the only one the serving path reads: bag b holds Lens[b] indices,
// and the bags' indices sit back to back in Indices, so
// len(Indices) == ΣLens. A BagList may be a view of a received frame:
// read-only.
type BagList struct {
	Lens    []int32
	Indices []int32
}

// Flatten converts authored bags to the flat form.
func Flatten(bags []Bag) BagList {
	l := BagList{Lens: make([]int32, len(bags)), Indices: make([]int32, 0, TotalLookups(bags))}
	for b, bag := range bags {
		l.Lens[b] = int32(len(bag.Indices))
		l.Indices = append(l.Indices, bag.Indices...)
	}
	return l
}

// Bags converts back to the authoring form: one header per bag over l's
// own Indices (capacity-capped, so no bag can grow into its neighbour),
// nil for an empty bag. It panics unless every length is non-negative and
// they sum to len(l.Indices).
func (l BagList) Bags() []Bag {
	out := make([]Bag, len(l.Lens))
	pos := 0
	for b, n := range l.Lens {
		if n < 0 || int(n) > len(l.Indices)-pos {
			panic(fmt.Sprintf("embedding: bag %d of length %d at index %d of %d", b, n, pos, len(l.Indices)))
		}
		if n > 0 {
			out[b].Indices = l.Indices[pos : pos+int(n) : pos+int(n)]
			pos += int(n)
		}
	}
	if pos != len(l.Indices) {
		panic(fmt.Sprintf("embedding: bags hold %d indices of %d", pos, len(l.Indices)))
	}
	return out
}

// Present counts the non-empty bags: the rows a packed pool of l holds.
func (l BagList) Present() int {
	n := 0
	for _, k := range l.Lens {
		if k != 0 {
			n++
		}
	}
	return n
}

// SLS executes SparseLengthsSum over a table: for each bag, it sums the
// indexed rows into one output vector of length table.Dim(). out must be
// len(bags)*dim long (row-major, one row per bag); every row is
// overwritten, an empty bag's with zeros.
//
// This mirrors Caffe2's SparseLengthsSum, the operator family the paper
// reports as "SLS" and which dominates sparse-shard compute. It is Pool
// over one table in the dense layout, so it shares Pool's row-sum
// kernels, prefetch and panics; being the authoring-form entry point it
// flattens its bags first, which the serving path never does.
func SLS(out []float32, table Table, bags []Bag) {
	dim := table.Dim()
	if len(out) != len(bags)*dim {
		panic(fmt.Sprintf("embedding: SLS out length %d != %d bags × dim %d", len(out), len(bags), dim))
	}
	l := Flatten(bags)
	Pool([]PoolEntry{{Table: table, Lens: l.Lens, Indices: l.Indices, Out: out, Stride: dim}})
}

// SLSMean is the mean-pooled variant: each output vector is the average of
// the indexed rows (empty bags produce zero vectors).
func SLSMean(out []float32, table Table, bags []Bag) {
	SLS(out, table, bags)
	dim := table.Dim()
	for b, bag := range bags {
		n := len(bag.Indices)
		if n <= 1 {
			continue
		}
		inv := 1 / float32(n)
		acc := out[b*dim : (b+1)*dim]
		for i := range acc {
			acc[i] *= inv
		}
	}
}

// TotalLookups returns the total pooling work (number of row accesses)
// across bags — the quantity the load-balanced sharding strategy budgets.
func TotalLookups(bags []Bag) int {
	n := 0
	for _, b := range bags {
		n += len(b.Indices)
	}
	return n
}
