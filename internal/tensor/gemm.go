package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// The GEMM engine: one cache-blocked kernel executed either inline or
// tiled across a worker pool. Parallelism never changes results — every
// dst element is owned by exactly one row tile, and inside a tile the
// k accumulation always runs in ascending order — so the parallel and
// serial paths are bitwise identical and migration/score-identity checks
// hold regardless of host core count or the knobs below.

const (
	// defaultBlockRows is the row-tile height handed to one worker: small
	// enough that a coalesced batch of 64+ items fans out across cores,
	// large enough that per-tile dispatch cost is noise next to the tile's
	// k×n accumulation work.
	defaultBlockRows = 16
	// gemmColBlock and gemmKBlock bound the B panel touched by one inner
	// block of the wide-operand path to gemmKBlock×gemmColBlock floats
	// (1 MiB). Outputs up to gemmColBlock wide — every MLP layer in the
	// models — instead take the streaming path, whose full-row inner loop
	// measures ~30% faster at those shapes. k blocks are walked in
	// ascending order so per-element accumulation order is fixed and both
	// paths produce bitwise-identical elements.
	gemmColBlock = 512
	gemmKBlock   = 512
	// gemmSerialWork is the m·k·n floor (multiply-adds) below which MatMul
	// stays inline: tiny matrices would pay more in dispatch than they
	// recover in parallelism.
	gemmSerialWork = 1 << 16
)

var (
	// denseWorkers is the per-call fan-out cap; 0 means GOMAXPROCS.
	denseWorkers atomic.Int32
	// blockRowsCfg is the configured row-tile height; 0 means default.
	blockRowsCfg atomic.Int32
)

// SetParallelism caps how many workers one MatMul fans out across.
// n <= 0 restores the default (GOMAXPROCS); 1 forces the serial path.
// Results are identical at every setting.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	denseWorkers.Store(int32(n))
}

// Parallelism reports the effective per-call worker cap.
func Parallelism() int {
	if n := denseWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetBlockRows sets the row-tile height one worker processes per claim.
// n <= 0 restores the default. Results are identical at every setting.
func SetBlockRows(n int) {
	if n < 0 {
		n = 0
	}
	blockRowsCfg.Store(int32(n))
}

// BlockRows reports the effective row-tile height.
func BlockRows() int {
	if n := blockRowsCfg.Load(); n > 0 {
		return int(n)
	}
	return defaultBlockRows
}

// gemmJob is one MatMul's tile queue. Workers (and the submitting
// goroutine) claim tiles from next until exhausted; wg counts tile
// completions, so Wait returns only when every tile is written.
type gemmJob struct {
	dst, a, b *Matrix
	bias      []float32
	relu      bool
	block     int
	lanes     int
	tiles     int32
	next      atomic.Int32
	wg        sync.WaitGroup
}

func (j *gemmJob) run() {
	for {
		t := j.next.Add(1) - 1
		if t >= j.tiles {
			return
		}
		i0 := int(t) * j.block
		i1 := i0 + j.block
		if i1 > j.dst.Rows {
			i1 = j.dst.Rows
		}
		gemmRows(j.dst, j.a, j.b, i0, i1, j.lanes, j.bias, j.relu)
		j.wg.Done()
	}
}

// gemmWorkers is the process-wide dense worker pool, started lazily and
// sized by GOMAXPROCS. Job handles are cheap claims on a tile queue: a
// worker that drains a stale handle (the submitter already finished the
// tiles) returns immediately, so a full channel never blocks a MatMul —
// the submitter always works its own queue too.
var gemmWorkers struct {
	once sync.Once
	jobs chan *gemmJob
}

func gemmPool() chan *gemmJob {
	gemmWorkers.once.Do(func() {
		n := runtime.GOMAXPROCS(0)
		gemmWorkers.jobs = make(chan *gemmJob, 8*n)
		for i := 0; i < n; i++ {
			go func() {
				for j := range gemmWorkers.jobs {
					j.run()
				}
			}()
		}
	})
	return gemmWorkers.jobs
}

// gemmLanes is the register tile's lane width on this host: 16, 8, or
// 0 for no assembly tile. Probed once at init; only tests assign it
// afterwards, to run the narrower widths on a wide host.
var gemmLanes = hostLanes()

// VectorLanes resolves kernel dispatch for one operation: the float32
// lane count the vector family's assembly may use on this host (16 or
// 8), or 0 when the generic family is active or the host has no AVX.
func VectorLanes() int {
	if ActiveKernel() != KernelVector {
		return 0
	}
	return gemmLanes
}

// matmul computes dst = relu?(a×b + bias) serially or tiled across the
// worker pool. bias may be nil. The epilogue is part of each row range's
// kernel call, applied by whichever goroutine owns the range.
func matmul(dst, a, b *Matrix, bias []float32, relu bool) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(shapeErr("MatMul", dst, a, b))
	}
	if bias != nil && len(bias) != dst.Cols {
		panic(fmt.Sprintf("tensor: bias length %d != cols %d", len(bias), dst.Cols))
	}
	block := BlockRows()
	work := int64(a.Rows) * int64(a.Cols) * int64(b.Cols)
	workers := Parallelism()
	// Resolve kernel dispatch once per MatMul so every tile of one call
	// runs the same kernel even if SetKernel races the call.
	lanes := VectorLanes()
	if workers <= 1 || dst.Rows <= block || work < gemmSerialWork {
		gemmRows(dst, a, b, 0, dst.Rows, lanes, bias, relu)
		return
	}

	job := &gemmJob{dst: dst, a: a, b: b, bias: bias, relu: relu, block: block, lanes: lanes}
	job.tiles = int32((dst.Rows + block - 1) / block)
	job.wg.Add(int(job.tiles))
	// Post at most workers-1 claim handles (the submitter is a worker
	// too); a full pool channel just means the submitter and the already
	// posted handles carry the job.
	post := workers - 1
	if t := int(job.tiles) - 1; post > t {
		post = t
	}
	jobs := gemmPool()
posting:
	for i := 0; i < post; i++ {
		select {
		case jobs <- job:
		default:
			break posting
		}
	}
	job.run()
	job.wg.Wait()
}

// gemmRows computes rows [i0, i1) of dst = relu?(a×b + bias) with the
// kernel selected at matmul entry: the register tile at the given lane
// width (gemm_tile_amd64.go), which fuses the epilogue into its store,
// or — lanes 0 — the generic streaming kernel below followed by the
// same epilogue as a pass over the finished rows. Per element the
// accumulation runs over k strictly ascending with the same zero-skip
// on every path — the bitwise-determinism contract — so the kernels are
// interchangeable bit for bit. (The j traversal order is free: each
// output element is a single independent accumulator.)
func gemmRows(dst, a, b *Matrix, i0, i1, lanes int, bias []float32, relu bool) {
	if lanes > 0 && a.Cols > 0 && b.Cols > 0 {
		gemmRowsTile(dst, a, b, i0, i1, lanes, bias, relu)
		return
	}
	gemmRowsGeneric(dst, a, b, i0, i1)
	n := dst.Cols
	for i := i0; i < i1; i++ {
		row := dst.Data[i*n : (i+1)*n]
		if bias != nil {
			addBias(row, bias)
		}
		if relu {
			ReLUSlice(row)
		}
	}
}

// gemmRowsGeneric is the portable reference kernel: one output row at a
// time, whole streamed rows of b through the accumulator row (or column/k
// panels for wide outputs).
func gemmRowsGeneric(dst, a, b *Matrix, i0, i1 int) {
	k, n := a.Cols, b.Cols
	if n <= gemmColBlock {
		// Streaming path: whole rows of b through the accumulator row.
		// This covers every dense layer in the models and beats the
		// panel-blocked loop there — the accumulator row lives in L1 and
		// b streams sequentially.
		for i := i0; i < i1; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*n : (i+1)*n]
			for x := range drow {
				drow[x] = 0
			}
			for p, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Data[p*n : (p+1)*n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
		return
	}
	// Wide outputs: panel over columns (and k) so the b block a row pass
	// touches stays cache-resident. k panels ascend, preserving the
	// per-element accumulation order of the streaming path.
	for jb := 0; jb < n; jb += gemmColBlock {
		je := jb + gemmColBlock
		if je > n {
			je = n
		}
		for i := i0; i < i1; i++ {
			drow := dst.Data[i*n+jb : i*n+je]
			for x := range drow {
				drow[x] = 0
			}
		}
		for kb := 0; kb < k; kb += gemmKBlock {
			ke := kb + gemmKBlock
			if ke > k {
				ke = k
			}
			for i := i0; i < i1; i++ {
				arow := a.Data[i*k : (i+1)*k]
				drow := dst.Data[i*n+jb : i*n+je]
				for p := kb; p < ke; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b.Data[p*n+jb : p*n+je]
					for j, bv := range brow {
						drow[j] += av * bv
					}
				}
			}
		}
	}
}
