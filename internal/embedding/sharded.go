package embedding

// A table too large for one shard is split into row-partitions by the
// paper's "simple modulus operator". Because the pooling operation is a
// sum, pooling each part's hits independently and summing the partial
// results reproduces the unsharded pooling exactly; that algebraic
// identity is what makes modulus row-sharding transparent to the model.

// RowPart is the modulus row rule: logical row r of a table split n ways
// lives in part r % n, at local row r / n there.
func RowPart(r, n int) (part, local int) { return r % n, r / n }

// PartRowCount returns how many of a table's rows part p of n holds.
func PartRowCount(rows, n, p int) int {
	if p < rows%n {
		return rows/n + 1
	}
	return rows / n
}

// PartRows copies part p of n of src: each logical row at its local row
// under RowPart. The plan sizes a part, so a part of a page or more gets
// an anonymous mapping of its own, as a whole model table does.
func PartRows(src *Dense, n, p int) *Dense {
	rows := src.NumRows()
	// A part with no rows keeps one, so its backend stays valid.
	local := newDenseMapped(max(PartRowCount(rows, n, p), 1), src.Dim())
	for r := p; r < rows; r += n {
		_, l := RowPart(r, n)
		copy(local.Row(l), src.Row(r))
	}
	return local
}
