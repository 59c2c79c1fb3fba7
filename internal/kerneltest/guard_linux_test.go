//go:build linux

package kerneltest

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// guardSink defeats dead-load elimination in the crash child: the
// over-read below must survive to execution, not be optimized away.
var guardSink float32

// TestGuardPageFaultsOnOverread proves the harness can actually catch
// anything: a child process reads one element past a guarded slice and
// must die on the fault. If this test ever observes the child
// surviving, the guard pages are decorative and every GuardPaged sweep
// below is vacuous.
func TestGuardPageFaultsOnOverread(t *testing.T) {
	if os.Getenv("KERNELTEST_GUARD_CRASH") == "1" {
		g, data := GuardedFloat32(8)
		defer g.Free()
		// The same stray load a buggy kernel would issue: one element
		// past the end of the slice, which is the first byte of the
		// PROT_NONE page.
		p := (*float32)(unsafe.Add(unsafe.Pointer(&data[0]), len(data)*4))
		guardSink = *p
		os.Exit(0) // unreachable if the guard works
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestGuardPageFaultsOnOverread$", "-test.v")
	cmd.Env = append(os.Environ(), "KERNELTEST_GUARD_CRASH=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("over-read of a guarded slice did not fault:\n%s", out)
	}
	if s := string(out); !strings.Contains(s, "SIGSEGV") && !strings.Contains(s, "fault") {
		t.Fatalf("child died but not from the guard page: %v\n%s", err, s)
	}
}

// guardedMatrix builds a rows×cols matrix whose Data ends flush against
// a guard page.
func guardedMatrix(t *testing.T, rng *rand.Rand, rows, cols int, p Payload) *tensor.Matrix {
	t.Helper()
	g, data := GuardedFloat32(rows * cols)
	t.Cleanup(g.Free)
	p.Fill(rng, data)
	return tensor.FromSlice(rows, cols, data)
}

// TestGEMMGuardPaged runs the full adversarial shape sweep with every
// operand — a, b, bias and dst — flush against a guard page, under both
// kernels and every lane width, with the fused epilogue on. The register
// tile's column tails are masked loads and stores: a masked-out lane
// that touched memory, or a live one placed past a row end, faults here
// (the last row of b, the bias and the last row of dst all end at the
// page); results are still checked against the oracle so short reads
// and dropped lanes show up too.
func TestGEMMGuardPaged(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(99))
	p := Payloads()[0]
	for _, s := range GEMMShapes() {
		a := guardedMatrix(t, rng, s.M, s.K, p)
		b := guardedMatrix(t, rng, s.K, s.N, p)
		bias := guardedMatrix(t, rng, 1, s.N, p).Data
		want := tensor.New(s.M, s.N)
		RefMatMul(want, a, b)
		RefEpilogue(want, bias, true)
		dst := guardedMatrix(t, rng, s.M, s.N, p)
		for _, d := range ds {
			d.set()
			for i := range dst.Data {
				dst.Data[i] = float32(math.NaN()) // dirty dst
			}
			tensor.MatMulEpilogue(dst, a, b, bias, true)
			if i := DiffFloat32(dst.Data, want.Data); i >= 0 {
				t.Fatalf("shape=%dx%dx%d %v: element %d = %08x, want %08x",
					s.M, s.K, s.N, d, i,
					math.Float32bits(dst.Data[i]), math.Float32bits(want.Data[i]))
			}
		}
	}
}

// TestGEMMBlocksGuardPaged runs block-addressed GEMMs with everything the
// kernels read flush against a guard page: the slot array, the handle
// table — whose last slot's last row is its last word, so a short tile
// that loaded a fourth row's handle, or a walk that looked one slot too
// far, faults — every slot's packed storage (a block read one value too
// long faults), b, the bias and dst. Rows run 1–24 so every row-tail
// length meets the end of the table; results are still checked against
// the oracle.
func TestGEMMBlocksGuardPaged(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(41))
	p := Payloads()[0]
	guarded := func(n int) []float32 {
		g, data := GuardedFloat32(n)
		t.Cleanup(g.Free)
		return data
	}
	for _, n := range []int{1, 96, 256, 300} {
		for m := 1; m <= 24; m++ {
			widths := blockWidths(rng, 8*(1+rng.Intn(12)))
			gh, handles := GuardedOf[uint32](len(widths) * m)
			t.Cleanup(gh.Free)
			gs, slots := GuardedOf[tensor.BlockSlot](len(widths))
			t.Cleanup(gs.Free)
			c := newBlockCase(rng, m, widths, []float64{0.09, 0.5, 1}[m%3], p, guarded, handles, slots)
			b := guardedMatrix(t, rng, c.dense.Cols, n, p)
			bias := guardedMatrix(t, rng, 1, n, p).Data
			checkBlocks(t, ds, c, b, bias, guardedMatrix(t, rng, m, n, p), "guarded")
		}
	}
}

// TestSLSPackedGuardPaged runs the pooling sweep with every table, every
// entry's lengths and indices and every packed output flush against a
// guard page, at every row width and
// lane width: the assembly row-sum loads and stores whole vectors, so a
// block that ran past a row's — or the packed region's — last element
// faults here; and the prefetch cursor, which runs ahead of the sums and
// past the end of each table's bag list, must touch nothing it was not
// given. Results are still checked against the oracle.
func TestSLSPackedGuardPaged(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(31))
	guarded := func(n int) []float32 {
		g, data := GuardedFloat32(n)
		t.Cleanup(g.Free)
		return data
	}
	guardedInts := func(n int) []int32 {
		g, data := GuardedOf[int32](n)
		t.Cleanup(g.Free)
		return data
	}
	for _, dims := range slsDims {
		c := newSLSCall(rng, dims, Payloads()[0], guarded)
		for i, tab := range c.tables {
			// Every table's last row — the one that ends at the page — is
			// read, and read last.
			if last := len(c.bags[i]) - 1; i != 1 {
				c.bags[i][last].Indices = []int32{0, int32(tab.NumRows() - 1)}
			}
		}
		wants := c.oracle()
		for _, d := range ds {
			d.set()
			got := c.pool(guarded, guardedInts)
			for i := range c.tables {
				if j := DiffFloat32(got[i], wants[i]); j >= 0 {
					t.Fatalf("dims=%v %v entry %d: element %d differs from the oracle", dims, d, i, j)
				}
			}
		}
	}
}

// TestSLSQuantizedGuardPaged runs the interleaved pooling sweep with every
// quantized table's fp16 scales, fp16 biases and codes each ending at a
// guard page, at every row width 1–33 and both code widths, and every
// quantized entry's last bag reading the table's last row — whose scale,
// bias and last code byte are the last ones before a page: a sum that
// read a header or a code past the table faults here (a prefetch never
// faults, so this holds the sums, not the prefetch). Results are still
// checked against the oracle.
func TestSLSQuantizedGuardPaged(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(37))
	guardedU16 := func(n int) []uint16 {
		g, data := GuardedUint16(n)
		t.Cleanup(g.Free)
		return data
	}
	guardedBytes := func(n int) []byte {
		g, data := GuardedBytes(n)
		t.Cleanup(g.Free)
		return data
	}
	for dim := 1; dim <= 33; dim++ {
		c := newSLSCall(rng, []int{dim}, Payloads()[0], heap)
		c.interleaveQuantized(rng, dim, guardedU16, guardedBytes)
		for i, tab := range c.tables {
			if _, ok := tab.(*embedding.Quantized); ok {
				c.bags[i] = append(c.bags[i], embedding.Bag{Indices: []int32{0, int32(tab.NumRows() - 1)}})
			}
		}
		wants := c.oracle()
		for _, d := range ds {
			d.set()
			got := c.pool(heap, heapInts)
			for i := range c.tables {
				if j := DiffFloat32(got[i], wants[i]); j >= 0 {
					t.Fatalf("dim=%d %v entry %d (%T): element %d differs from the oracle", dim, d, i, c.tables[i], j)
				}
			}
		}
	}
}

// TestQuantGuardPaged runs the decode sweep with the packed codes, the
// fp16 headers, and the caller-provided accumulator all guard-paged,
// for both widths across every vector-body/tail split. The int4 path is
// the sharpest edge: an odd column count's final nibble shares its byte
// with nothing, so a decoder that rounds the row stride up reads the
// guard.
func TestQuantGuardPaged(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAuto)
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []quant.Bits{quant.Bits8, quant.Bits4} {
		for _, cols := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 64, 67} {
			rows := 6
			stride := cols
			if bits == quant.Bits4 {
				stride = (cols + 1) / 2
			}
			gp, packed := GuardedBytes(rows * stride)
			gs, scales := GuardedUint16(rows)
			gb, biases := GuardedUint16(rows)
			for i := range packed {
				packed[i] = byte(rng.Intn(256))
			}
			for r := 0; r < rows; r++ {
				scales[r], biases[r] = 0x3c00, 0x4000 // 1.0, 2.0
			}
			q, err := quant.NewFromParts(rows, cols, bits, scales, biases, packed)
			if err != nil {
				t.Fatal(err)
			}
			indices := make([]int32, 10)
			for i := range indices {
				indices[i] = int32(rng.Intn(rows))
			}

			type result struct{ deq, accRow, accBag []float32 }
			run := func(k tensor.Kernel) result {
				tensor.SetKernel(k)
				var res result
				gd, deq := GuardedFloat32(cols)
				defer gd.Free()
				q.DequantizeRowInto(deq, rows-1)
				res.deq = append([]float32(nil), deq...)
				ga, acc := GuardedFloat32(cols)
				defer ga.Free()
				for r := 0; r < rows; r++ {
					q.AccumulateRow(acc, r)
				}
				res.accRow = append([]float32(nil), acc...)
				gg, bag := GuardedFloat32(cols)
				defer gg.Free()
				q.AccumulateBag(bag, indices)
				res.accBag = append([]float32(nil), bag...)
				return res
			}
			gen := run(tensor.KernelGeneric)
			vec := run(tensor.KernelVector)
			for _, cmp := range []struct {
				name      string
				got, want []float32
			}{
				{"dequantize", vec.deq, gen.deq},
				{"accumulate-row", vec.accRow, gen.accRow},
				{"accumulate-bag", vec.accBag, gen.accBag},
			} {
				if i := DiffFloat32(cmp.got, cmp.want); i >= 0 {
					t.Fatalf("bits=%d cols=%d %s: element %d = %08x, want %08x",
						bits, cols, cmp.name, i,
						math.Float32bits(cmp.got[i]), math.Float32bits(cmp.want[i]))
				}
			}
			gp.Free()
			gs.Free()
			gb.Free()
		}
	}
}
