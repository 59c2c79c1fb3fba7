// Package nn implements the neural-network execution substrate: a named
// blob workspace, the operator inventory of the recommendation models
// (fully-connected stacks, activations, scale/clip, hashing, embedding
// lookups, memory transforms, feature interaction), and a sequential net
// scheduler.
//
// The design follows the Caffe2 execution model the paper builds on:
// operators read and write named blobs in a workspace; a net is an ordered
// operator list; "operators are scheduled to execute sequentially — unless
// specifically asynchronous like the RPC ops — because other cores are
// utilized via request- and batch-level parallelism" (Section IV-A). A net
// knows nothing of in-flight work: an operator that launches some (core's
// RPC op) is synchronized by its owner — core's waitOp blocks on the
// pooled results, the engine's execution bounds the goroutines — and the
// workspace holds only resolved values.
package nn

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// Workspace holds the named state one net execution operates on: dense
// blobs (matrices), pooled embeddings (block tables) and sparse inputs
// (flat bag lists of embedding indices per feature). A Workspace is not
// safe for concurrent mutation; each inference batch gets its own.
//
// A workspace that is reused across runs keeps the storage AllocBlob
// handed out under each name: Recycle ends a run and turns that storage
// into spare for the next run's AllocBlob of the same name, so steady
// state reuses the dense outputs' storage instead of allocating it. It
// keeps a FusedSLS's pool entries and block table by output name the
// same way (slsBufs).
type Workspace struct {
	blobs  map[string]*tensor.Matrix
	blocks map[string]*tensor.Blocks
	bags   map[string]embedding.BagList
	// owned holds the storage AllocBlob handed out this run, by name;
	// spare holds what earlier runs left for AllocBlob to take back.
	owned map[string][]float32
	spare map[string][]float32
	// sls holds, by output name, what each FusedSLS run built besides
	// its matrix.
	sls map[string]*slsBufs
}

// slsBufs is a FusedSLS's per-run scratch: its embedding.Pool entries and
// the block table it publishes.
type slsBufs struct {
	pool   []embedding.PoolEntry
	blocks tensor.Blocks
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		blobs:  make(map[string]*tensor.Matrix),
		blocks: make(map[string]*tensor.Blocks),
		bags:   make(map[string]embedding.BagList),
		owned:  make(map[string][]float32),
		spare:  make(map[string][]float32),
		sls:    make(map[string]*slsBufs),
	}
}

// SetBlob stores a dense blob under name, replacing any previous value.
// Storage passed in here never becomes spare unless AllocBlob handed it
// out.
func (ws *Workspace) SetBlob(name string, m *tensor.Matrix) { ws.blobs[name] = m }

// AllocBlob returns writable rows×cols output storage for name: the
// storage an earlier run used under this name when it is large enough,
// else a fresh zeroed allocation. Reused storage is dirty — the caller
// must fully overwrite it. Within a run no two calls share storage. The
// blob is NOT yet registered; call SetBlob once it is filled.
func (ws *Workspace) AllocBlob(name string, rows, cols int) *tensor.Matrix {
	m, _ := ws.alloc(name, rows, cols)
	return m
}

// AllocBlobZero is AllocBlob for producers that accumulate instead of
// overwrite: reused storage is cleared before return, fresh allocations
// are already zero.
func (ws *Workspace) AllocBlobZero(name string, rows, cols int) *tensor.Matrix {
	m, reused := ws.alloc(name, rows, cols)
	if reused {
		clear(m.Data)
	}
	return m
}

func (ws *Workspace) alloc(name string, rows, cols int) (*tensor.Matrix, bool) {
	n := rows * cols
	buf, reused := ws.spare[name]
	if reused && cap(buf) >= n {
		delete(ws.spare, name)
		buf = buf[:n]
	} else {
		buf, reused = make([]float32, n), false
	}
	ws.owned[name] = buf
	return tensor.FromSlice(rows, cols, buf), reused
}

// slsScratch returns the scratch a FusedSLS run under name fills: an empty
// pool-entry list with room for entries, and a rows×cols block table of
// entries slots and zeroed handles; the op sets every slot. A workspace
// that ran the op before hands back the same storage, so a second run
// under the same name replaces what the first published even without a
// Recycle between them.
func (ws *Workspace) slsScratch(name string, entries, rows, cols int) ([]embedding.PoolEntry, *tensor.Blocks) {
	b := ws.sls[name]
	if b == nil {
		b = &slsBufs{}
		ws.sls[name] = b
	}
	if cap(b.pool) < entries {
		b.pool = make([]embedding.PoolEntry, 0, entries)
	}
	slots, handles := b.blocks.Slots, b.blocks.Handles
	if cap(slots) < entries {
		slots = make([]tensor.BlockSlot, entries)
	}
	if cap(handles) < entries*rows {
		handles = make([]uint32, entries*rows)
	}
	slots, handles = slots[:entries], handles[:entries*rows]
	clear(handles)
	b.blocks = tensor.Blocks{Rows: rows, Cols: cols, Stride: rows, Slots: slots, Handles: handles}
	return b.pool[:0], &b.blocks
}

// Recycle ends a run: every blob, block table and bag list is forgotten,
// and the storage AllocBlob handed out becomes spare for the next run.
// Nothing drawn from the workspace may be used after Recycle. Block
// tables and bag lists are dropped rather than kept, and a FusedSLS's
// kept entries and slots are cleared, so a pooled workspace never pins
// the buffers they stand over.
func (ws *Workspace) Recycle() {
	for name, buf := range ws.owned {
		ws.spare[name] = buf
	}
	for _, b := range ws.sls {
		clear(b.pool[:cap(b.pool)])
		clear(b.blocks.Slots)
	}
	clear(ws.owned)
	clear(ws.blobs)
	clear(ws.blocks)
	clear(ws.bags)
}

// Blob fetches a dense blob; it returns an error naming the blob if absent
// so operator failures identify the broken wiring.
func (ws *Workspace) Blob(name string) (*tensor.Matrix, error) {
	m, ok := ws.blobs[name]
	if !ok {
		return nil, fmt.Errorf("nn: blob %q not found", name)
	}
	return m, nil
}

// HasBlob reports whether a dense blob exists.
func (ws *Workspace) HasBlob(name string) bool { _, ok := ws.blobs[name]; return ok }

// SetBlocks stores a net's pooled embeddings — one row per item, one
// slot per table — under name. Whoever pooled them publishes them in this
// one form: the in-line SLS over its matrix, the sparse fetch over the
// response bodies.
func (ws *Workspace) SetBlocks(name string, b *tensor.Blocks) { ws.blocks[name] = b }

// Blocks fetches pooled embeddings by name.
func (ws *Workspace) Blocks(name string) (*tensor.Blocks, error) {
	b, ok := ws.blocks[name]
	if !ok {
		return nil, fmt.Errorf("nn: pooled embeddings %q not found", name)
	}
	return b, nil
}

// SetBags stores a sparse input — one bag per row — under name.
func (ws *Workspace) SetBags(name string, bags embedding.BagList) { ws.bags[name] = bags }

// Bags fetches a sparse input by name.
func (ws *Workspace) Bags(name string) (embedding.BagList, error) {
	b, ok := ws.bags[name]
	if !ok {
		return embedding.BagList{}, fmt.Errorf("nn: bags %q not found", name)
	}
	return b, nil
}
