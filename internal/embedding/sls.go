package embedding

import "fmt"

// BagAccumulator is implemented by table backends with an amortized
// whole-bag pooling path (the tiered store: one lock pair per bag
// instead of per row). Implementations must pool in strict index order
// and bounds-check like SLS does, so swapping a backend in or out never
// changes results or panics.
type BagAccumulator interface {
	AccumulateBag(acc []float32, indices []int32)
}

// Bag is one pooled lookup: a set of row indices in a table whose
// embedding vectors are summed (the paper's pooling operation). One
// inference example contributes one bag per sparse feature; the number of
// indices in the bag is that feature's pooling factor for the example.
type Bag struct {
	Indices []int32
}

// SLS executes SparseLengthsSum over a table: for each bag, it sums the
// indexed rows into one output vector of length table.Dim(). out must be
// len(bags)*dim long (row-major, one row per bag); every row is
// overwritten, an empty bag's with zeros.
//
// This mirrors Caffe2's SparseLengthsSum, the operator family the paper
// reports as "SLS" and which dominates sparse-shard compute. It is Pool
// over one table in the dense layout, so it shares Pool's row-sum
// kernels, prefetch and panics.
func SLS(out []float32, table Table, bags []Bag) {
	dim := table.Dim()
	if len(out) != len(bags)*dim {
		panic(fmt.Sprintf("embedding: SLS out length %d != %d bags × dim %d", len(out), len(bags), dim))
	}
	Pool([]PoolEntry{{Table: table, Bags: bags, Out: out, Stride: dim}})
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
