package embedding

import (
	"fmt"
	"math/rand"
)

// Part is one row-partition of a larger logical table. Logical row r lives
// in part r % NumParts at local row r / NumParts — the paper's "simple
// modulus operator" partition. Because the pooling operation is a sum,
// pooling each part's hits independently and summing the partial results
// reproduces the unsharded pooling exactly; that algebraic identity is what
// makes modulus row-sharding transparent to the model.
type Part struct {
	// Index is this part's position in [0, NumParts).
	Index int
	// NumParts is the total number of partitions of the logical table.
	NumParts int
	// Local stores this part's rows compactly.
	Local *Dense
}

// PartitionRows splits a logical table of logicalRows×dim into numParts
// modulus partitions, each backed by its own Dense storage filled from
// src. src may be nil, in which case parts are zero-initialized.
func PartitionRows(src *Dense, numParts int) []*Part {
	if numParts <= 0 {
		panic(fmt.Sprintf("embedding: numParts %d <= 0", numParts))
	}
	parts := make([]*Part, numParts)
	rows, dim := src.NumRows(), src.Dim()
	for p := 0; p < numParts; p++ {
		localRows := rows / numParts
		if p < rows%numParts {
			localRows++
		}
		if localRows == 0 {
			localRows = 1 // keep backend valid for parts with no rows
		}
		parts[p] = &Part{Index: p, NumParts: numParts, Local: NewDense(localRows, dim)}
	}
	for r := 0; r < rows; r++ {
		p := r % numParts
		copy(parts[p].Local.Row(r/numParts), src.Row(r))
	}
	return parts
}

// LocalRow converts a logical row index into this part's local index. It
// panics if the logical row does not belong to this part.
func (p *Part) LocalRow(logical int) int {
	if logical%p.NumParts != p.Index {
		panic(fmt.Sprintf("embedding: row %d does not belong to part %d/%d", logical, p.Index, p.NumParts))
	}
	return logical / p.NumParts
}

// MergePartial sums per-part SLS outputs into one pooled result. Each
// partial must be len(out) long; parts with no hits contribute zeros.
func MergePartial(out []float32, partials [][]float32) {
	for i := range out {
		out[i] = 0
	}
	for _, part := range partials {
		if len(part) != len(out) {
			panic(fmt.Sprintf("embedding: partial length %d != out %d", len(part), len(out)))
		}
		for i, v := range part {
			out[i] += v
		}
	}
}

// NewDenseRandomRows is a convenience used by tests and model builders: it
// creates a table whose row values encode the row index, making lookup
// provenance checkable.
func NewDenseRandomRows(rng *rand.Rand, rows, dim int) *Dense {
	t := NewDense(rows, dim)
	for r := 0; r < rows; r++ {
		base := rng.Float32()
		row := t.Row(r)
		for c := range row {
			row[c] = base + float32(r)*1e-4 + float32(c)*1e-6
		}
	}
	return t
}
