package nn

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// FusedSLSEntry is one table inside a FusedSLS op.
type FusedSLSEntry struct {
	Table     embedding.Table
	InputBags string
	// ColOffset is the table's column range start in the fused output.
	ColOffset int
}

// FusedSLS pools every entry's lookups directly into one pre-concatenated
// bags×Cols embedding matrix, the fusion of SparseLengthsSum and the
// following Concat that optimized CPU serving stacks perform: it touches
// one output allocation instead of one per table, so its cost tracks the
// pooling work (the paper's operative quantity) rather than allocator
// overhead. It is one embedding.Pool call whose entries are column
// ranges of the matrix, so the singular engine sums a bag with the very
// kernel a sparse shard does. What it publishes for the layers above is a
// block table over that matrix — a handle where a bag had a lookup, none
// where it was empty — the form a distributed fetch delivers, so the
// projection and the interaction have one input kind under every plan.
// Entries must be in ascending, back-to-back column order.
type FusedSLS struct {
	OpName string
	// Output receives the bags×Cols fused matrix, and the block table
	// over it.
	Output string
	// Cols is the sum of entry dims.
	Cols    int
	Entries []FusedSLSEntry
}

// Name implements Op.
func (o *FusedSLS) Name() string { return o.OpName }

// Kind implements Op.
func (o *FusedSLS) Kind() OpKind { return KindSparse }

// Run implements Op. An out-of-range index panics inside embedding.Pool
// with nothing pooled; the net scheduler turns that into the request's
// error.
func (o *FusedSLS) Run(ws *Workspace) error {
	if len(o.Entries) == 0 {
		return fmt.Errorf("%s: no entries", o.OpName)
	}
	first, err := ws.Bags(o.Entries[0].InputBags)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	rows := len(first.Lens)
	if uint64(rows)*uint64(o.Cols) >= 1<<32 {
		return fmt.Errorf("%s: %d×%d pooled values are too many for 32-bit block handles", o.OpName, rows, o.Cols)
	}
	var emb *tensor.Matrix
	if ws.HasBlob(o.Output) {
		// Output blob pre-materialized by an AllocEmb (Fill) operator —
		// the Caffe2 pattern where *Fill ops create output storage and
		// SLS only pools into it.
		emb, err = ws.Blob(o.Output)
		if err != nil {
			return err
		}
		if emb.Rows != rows || emb.Cols != o.Cols {
			return fmt.Errorf("%s: preallocated output is %dx%d, want %dx%d", o.OpName, emb.Rows, emb.Cols, rows, o.Cols)
		}
	} else {
		emb = tensor.New(rows, o.Cols)
	}
	pool, blocks := ws.slsScratch(o.Output, len(o.Entries), rows, o.Cols)
	for i := range o.Entries {
		e := &o.Entries[i]
		bags, err := ws.Bags(e.InputBags)
		if err != nil {
			return fmt.Errorf("%s[%d]: %w", o.OpName, i, err)
		}
		if len(bags.Lens) != rows {
			return fmt.Errorf("%s[%d]: %d bags, want %d", o.OpName, i, len(bags.Lens), rows)
		}
		if dim := e.Table.Dim(); e.ColOffset < 0 || e.ColOffset+dim > o.Cols {
			return fmt.Errorf("%s[%d]: column range [%d, %d) outside %d", o.OpName, i, e.ColOffset, e.ColOffset+dim, o.Cols)
		}
		if rows > 0 {
			pool = append(pool, embedding.PoolEntry{Table: e.Table, Lens: bags.Lens, Indices: bags.Indices, Out: emb.Data[e.ColOffset:], Stride: o.Cols})
		}
		blocks.Slots[i] = tensor.BlockSlot{Data: emb.Data, Col: int32(e.ColOffset), Width: int32(e.Table.Dim())}
		for r, n := range bags.Lens {
			if n != 0 {
				blocks.Handles[i*rows+r] = uint32(r*o.Cols+e.ColOffset) + 1
			}
		}
	}
	embedding.Pool(pool)
	ws.SetBlob(o.Output, emb)
	ws.SetBlocks(o.Output, blocks)
	return nil
}

// AllocEmb materializes a zeroed rows×Cols matrix whose row count tracks
// a bag input's length — the fused embedding output blob. It is a Fill
// operator (Fig. 4's "Fill" group): output-storage materialization is
// framework work, not pooling work.
type AllocEmb struct {
	OpName string
	// RowsFrom names a bag input whose length gives the row count.
	RowsFrom string
	Cols     int
	Output   string
}

// Name implements Op.
func (o *AllocEmb) Name() string { return o.OpName }

// Kind implements Op.
func (o *AllocEmb) Kind() OpKind { return KindFill }

// Run implements Op.
func (o *AllocEmb) Run(ws *Workspace) error {
	bags, err := ws.Bags(o.RowsFrom)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	// Zeroed even when the workspace reuses dirty storage: FusedSLS writes its
	// entries' column ranges and nothing between them.
	ws.SetBlob(o.Output, ws.AllocBlobZero(o.Output, len(bags.Lens), o.Cols))
	return nil
}
