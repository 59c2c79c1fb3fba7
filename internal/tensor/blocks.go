package tensor

import "fmt"

// Blocks is a rows × Cols float32 matrix held as a table of blocks: the
// form a net's pooled embeddings have at the main shard. Its columns are
// cut into slots — one per embedding table, a table's Dim wide — and per
// (row, slot) it holds a handle: 0 for a block of +0 values that is
// stored nowhere (the bag was empty), else where the block's Width values
// sit in the slot's backing storage. Nothing is copied to build one: the
// storage is wherever the values already are — a sparse.run response
// body, a packed scratch of summed parts, the in-line SLS matrix — and a
// dense Matrix is the one-slot table whose every handle is set.
//
// The GEMM kernels and the interaction read through the handles, so an
// absent block is neither zeroed, scanned nor multiplied.
type Blocks struct {
	Rows, Cols int
	// Slots are the column blocks in ascending column order, back to back
	// from column 0 to Cols.
	Slots []BlockSlot
	// Handles holds Rows handles per slot, slot-major: row r's handle for
	// slot s is Handles[s*Stride+r] — 0, or 1 + the index in Slots[s].Data
	// of the block's first value. A row range of a table shares its Slots
	// and Stride (RowRange).
	Handles []uint32
	Stride  int
}

// BlockSlot is one column block of a Blocks table. The assembly kernels
// read it in place: Data's pointer at offset 0, Col at 24, Width at 28,
// 32 bytes a slot.
type BlockSlot struct {
	// Data backs the slot's present blocks; read-only.
	Data []float32
	// Col is the slot's first column and Width how many it covers.
	Col, Width int32
}

// MaxBlockWidth bounds a slot's Width in a table handed to MatMulBlocks:
// a four-row tile reads an absent row of a live slot from a static block
// of zeros this long. It is the widest embedding row the shard-file
// format admits.
const MaxBlockWidth = 1 << 12

// zeroBlock is what an absent block reads as.
var zeroBlock [MaxBlockWidth]float32

// RowRange returns rows [from, from+rows) of a as a table of its own; it
// shares a's slots and handles.
func (a *Blocks) RowRange(from, rows int) *Blocks {
	if from < 0 || rows < 0 || from+rows > a.Rows {
		panic(fmt.Sprintf("tensor: rows [%d, %d) of a %d-row block table", from, from+rows, a.Rows))
	}
	out := *a
	out.Rows, out.Handles = rows, a.Handles[from:]
	return &out
}

// Block returns row r's values in slot s: a view of the slot's storage,
// or of a block of zeros when the handle is 0. Read-only.
func (a *Blocks) Block(r, s int) []float32 {
	slot := &a.Slots[s]
	h := a.Handles[s*a.Stride+r]
	if h == 0 {
		return zeroBlock[:slot.Width]
	}
	return slot.Data[h-1:][:slot.Width]
}

// Dense materializes a as the Rows × Cols matrix it stands for, absent
// blocks as +0: what the kernels' results are defined against.
func (a *Blocks) Dense() *Matrix {
	m := New(a.Rows, a.Cols)
	for r := 0; r < a.Rows; r++ {
		row := m.Row(r)
		for s := range a.Slots {
			copy(row[a.Slots[s].Col:], a.Block(r, s))
		}
	}
	return m
}

// denseBlocks is m as a block table: one slot over its storage, row r's
// handle pointing at its first value. slot and handles are storage for
// the one slot and for m.Rows handles, the caller's so that they can sit
// on its stack.
func denseBlocks(m *Matrix, slot []BlockSlot, handles []uint32) Blocks {
	if uint64(len(m.Data)) >= 1<<32 {
		panic(fmt.Sprintf("tensor: %v is too large for 32-bit block handles", m))
	}
	out := Blocks{Rows: m.Rows, Cols: m.Cols, Handles: handles, Stride: m.Rows}
	if m.Cols == 0 {
		return out // no column, no slot: every sum is the empty one
	}
	for r := range handles {
		handles[r] = uint32(r*m.Cols) + 1
	}
	slot[0] = BlockSlot{Data: m.Data, Width: int32(m.Cols)}
	out.Slots = slot[:1]
	return out
}

// check panics unless a is well formed for a GEMM against a k-row b: the
// slots tile [0, k) with widths in [1, MaxBlockWidth], and every row's
// handles are there to read. What a handle points at is checked where the
// kernels' driver walks it (presence).
func (a *Blocks) check(k int) {
	col := 0
	for s := range a.Slots {
		slot := &a.Slots[s]
		if int(slot.Col) != col || slot.Width < 1 || slot.Width > MaxBlockWidth {
			panic(fmt.Sprintf("tensor: block slot %d covers [%d, %d+%d) after column %d (widest: %d)", s, slot.Col, slot.Col, slot.Width, col, MaxBlockWidth))
		}
		col += int(slot.Width)
	}
	if col != a.Cols || a.Cols != k {
		panic(fmt.Sprintf("tensor: block slots cover %d of %d columns for %d rows of b", col, a.Cols, k))
	}
	if a.Rows < 0 || a.Stride < a.Rows || (a.Rows > 0 && len(a.Slots) > 0 && len(a.Handles) < (len(a.Slots)-1)*a.Stride+a.Rows) {
		panic(fmt.Sprintf("tensor: %d handles for %d rows × %d slots at stride %d", len(a.Handles), a.Rows, len(a.Slots), a.Stride))
	}
}

// presence counts, over rows [i, i+rows) of a, the blocks that are
// present and the slots in which any of those rows is — what choosing a
// kernel for the group needs — and panics on a handle whose block does
// not lie inside its slot's storage: the kernels trust what they are
// handed. Blocks of a slot have one width, so the slot's largest handle
// speaks for the rest; counting is branch-free, since whether a bag was
// empty is not something a predictor learns.
func (a *Blocks) presence(i, rows int) (present, live int) {
	for s := range a.Slots {
		var top, n uint32
		for _, h := range a.Handles[s*a.Stride+i:][:rows] {
			top = max(top, h)
			n += (h | -h) >> 31
		}
		if top == 0 {
			continue
		}
		if slot := &a.Slots[s]; uint64(top-1)+uint64(slot.Width) > uint64(len(slot.Data)) {
			panic(fmt.Sprintf("tensor: block handle %d of slot %d outside its %d values", top, s, len(slot.Data)))
		}
		present += int(n)
		live++
	}
	return present, live
}
