// Package nn implements the neural-network execution substrate: a named
// blob workspace, the operator inventory of the recommendation models
// (fully-connected stacks, activations, scale/clip, hashing, embedding
// lookups, memory transforms, feature interaction), and a sequential net
// scheduler with support for asynchronous operators.
//
// The design follows the Caffe2 execution model the paper builds on:
// operators read and write named blobs in a workspace; a net is an ordered
// operator list; "operators are scheduled to execute sequentially — unless
// specifically asynchronous like the RPC ops — because other cores are
// utilized via request- and batch-level parallelism" (Section IV-A).
package nn

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// Workspace holds the named state one net execution operates on: dense
// blobs (matrices), pooled embeddings (block tables), sparse inputs (flat
// bag lists of embedding indices per feature), and in-flight futures
// registered by asynchronous operators. A Workspace is not safe for
// concurrent mutation; each inference batch gets its own.
type Workspace struct {
	blobs   map[string]*tensor.Matrix
	blocks  map[string]*tensor.Blocks
	bags    map[string]embedding.BagList
	futures map[string]*Future
	// arena, when set, backs scheduled output blobs so steady-state
	// execution allocates nothing; see AllocBlob.
	arena *Arena
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		blobs:   make(map[string]*tensor.Matrix),
		blocks:  make(map[string]*tensor.Blocks),
		bags:    make(map[string]embedding.BagList),
		futures: make(map[string]*Future),
	}
}

// SetBlob stores a dense blob under name, replacing any previous value.
func (ws *Workspace) SetBlob(name string, m *tensor.Matrix) { ws.blobs[name] = m }

// SetArena attaches a buffer arena for the run. Matrices drawn from it
// are valid only until the arena returns to its pool; the engine owns
// that lifecycle.
func (ws *Workspace) SetArena(a *Arena) { ws.arena = a }

// AllocBlob returns writable rows×cols output storage for name: from the
// arena's blob schedule when one covers the name at this shape, else a
// fresh zeroed allocation. Arena storage is dirty — the caller must
// fully overwrite it. The blob is NOT yet registered; call SetBlob once
// it is filled.
func (ws *Workspace) AllocBlob(name string, rows, cols int) *tensor.Matrix {
	if m := ws.arena.Blob(name, rows, cols); m != nil {
		return m
	}
	return tensor.New(rows, cols)
}

// AllocBlobZero is AllocBlob for producers that accumulate instead of
// overwrite: arena storage is cleared before return, fresh allocations
// are already zero.
func (ws *Workspace) AllocBlobZero(name string, rows, cols int) *tensor.Matrix {
	if m := ws.arena.Blob(name, rows, cols); m != nil {
		clear(m.Data)
		return m
	}
	return tensor.New(rows, cols)
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

// RegisterFuture records an in-flight asynchronous result that will
// eventually produce the named blob. Registering a second future for the
// same blob is a wiring bug and panics.
func (ws *Workspace) RegisterFuture(blob string, f *Future) {
	if _, dup := ws.futures[blob]; dup {
		panic(fmt.Sprintf("nn: duplicate future for blob %q", blob))
	}
	ws.futures[blob] = f
}

// WaitBlob resolves the named blob: if a future is registered it blocks
// until completion, installs the result, and returns it; otherwise it
// behaves like Blob.
func (ws *Workspace) WaitBlob(name string) (*tensor.Matrix, error) {
	if f, ok := ws.futures[name]; ok {
		delete(ws.futures, name)
		m, err := f.Wait()
		if err != nil {
			return nil, fmt.Errorf("nn: async producer of %q failed: %w", name, err)
		}
		ws.blobs[name] = m
		return m, nil
	}
	return ws.Blob(name)
}

// WaitAll resolves every outstanding future, returning the first error.
// The scheduler calls this at net exit so no goroutine leaks past a run.
// A nil workspace — a net whose operators carry their own operands — has
// none.
func (ws *Workspace) WaitAll() error {
	if ws == nil {
		return nil
	}
	var firstErr error
	for name, f := range ws.futures {
		m, err := f.Wait()
		delete(ws.futures, name)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("nn: async producer of %q failed: %w", name, err)
			}
			continue
		}
		ws.blobs[name] = m
	}
	return firstErr
}

// Pending returns the number of unresolved futures (for tests).
func (ws *Workspace) Pending() int { return len(ws.futures) }

// Future is a single-assignment asynchronous result produced by an async
// operator (the RPC op). The producing goroutine calls Complete exactly
// once; consumers call Wait.
type Future struct {
	done chan struct{}
	m    *tensor.Matrix
	err  error
}

// NewFuture returns an unresolved future.
func NewFuture() *Future { return &Future{done: make(chan struct{})} }

// Complete resolves the future with a result or error. Calling it twice
// panics (by closing a closed channel), which is the desired loud failure
// for a protocol bug.
func (f *Future) Complete(m *tensor.Matrix, err error) {
	f.m, f.err = m, err
	close(f.done)
}

// Wait blocks until the future resolves.
func (f *Future) Wait() (*tensor.Matrix, error) {
	<-f.done
	return f.m, f.err
}
