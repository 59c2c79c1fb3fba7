package kerneltest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// slsDims are the row widths the pooling sweeps run: below one vector,
// one and several vectors (the assembly row-sum's 8-, 16- and 32-column
// blocks alone and combined), and widths that are not a multiple of 8,
// which stay on the Go loop under either family.
var slsDims = [][]int{{1}, {4}, {8}, {12}, {16}, {24}, {32}, {64}, {100},
	{16, 12, 8}} // one call over mixed widths: a chunk the assembly cannot take whole

// refPool is the harness's own pooling oracle for a packed entry: per
// non-empty bag one row, each element summed from +0 in index order.
// As in refAcc, the both-NaN outcome is spelled out rather than left to
// this file's compilation: the kernels add the row to the accumulator,
// so the accumulator's payload wins.
func refPool(table *embedding.Dense, bags []embedding.Bag) []float32 {
	var out []float32
	for _, bag := range bags {
		if len(bag.Indices) == 0 {
			continue
		}
		acc := make([]float32, table.DimN)
		for _, idx := range bag.Indices {
			for c, v := range table.Row(int(idx)) {
				if !(acc[c] != acc[c] && v != v) {
					acc[c] += v
				}
			}
		}
		out = append(out, acc...)
	}
	return out
}

// quantPool is the oracle for a packed entry over a quantized table: per
// non-empty bag one row, AccumulateRow by AccumulateRow from +0 under the
// generic family — the scalar decode every pooling path must match bit
// for bit. It leaves the generic family dispatched.
func quantPool(table *quant.RowQuantized, bags []embedding.Bag) []float32 {
	tensor.SetKernel(tensor.KernelGeneric)
	var out []float32
	for _, bag := range bags {
		if len(bag.Indices) == 0 {
			continue
		}
		acc := make([]float32, table.Dim())
		for _, idx := range bag.Indices {
			table.AccumulateRow(acc, int(idx))
		}
		out = append(out, acc...)
	}
	return out
}

// ordinaryHeaders are fp16 (scale, bias) pairs an encoder writes for
// everyday rows: 0.1 and −0.2, 1/256 and −1.
var ordinaryHeaders = [][2]uint16{{0x2e66, 0xb266}, {0x1c00, 0xbc00}}

// quantAt builds a rows×dim table at width bits over storage the caller
// provides: random codes, and per row an fp16 (scale, bias) that is, as
// often as not, one of adversarialHeaders — NaN payloads, ±Inf,
// subnormals, signed zeros — and otherwise an ordinary one.
func quantAt(rng *rand.Rand, rows, dim int, bits quant.Bits, u16 func(n int) []uint16, codes func(n int) []byte) *quant.RowQuantized {
	stride := dim
	if bits == quant.Bits4 {
		stride = (dim + 1) / 2
	}
	scales, biases, packed := u16(rows), u16(rows), codes(rows*stride)
	hdrs := adversarialHeaders()
	for r := range rows {
		h := ordinaryHeaders[rng.Intn(len(ordinaryHeaders))]
		if rng.Intn(2) == 0 {
			h = hdrs[rng.Intn(len(hdrs))]
		}
		scales[r], biases[r] = h[0], h[1]
	}
	for i := range packed {
		packed[i] = byte(rng.Intn(256))
	}
	q, err := quant.NewFromParts(rows, dim, bits, scales, biases, packed)
	if err != nil {
		panic(err)
	}
	return q
}

// slsBags builds one entry's bag list over a table of `rows` rows:
// empty bags, single lookups, a long bag, a bag that repeats one index,
// and ordinary short ones, shuffled.
func slsBags(rng *rand.Rand, rows, n int) []embedding.Bag {
	bags := make([]embedding.Bag, n)
	for b := range bags {
		var k int
		switch rng.Intn(6) {
		case 0, 1:
			k = 0
		case 2:
			k = 1
		case 3:
			k = 40 + rng.Intn(40)
		default:
			k = 2 + rng.Intn(4)
		}
		if k == 0 {
			continue
		}
		idx := make([]int32, k)
		for i := range idx {
			idx[i] = int32(rng.Intn(rows))
		}
		if rng.Intn(4) == 0 {
			for i := range idx {
				idx[i] = idx[0] // the same row, k times
			}
		}
		bags[b].Indices = idx
	}
	return bags
}

// slsCall is one Pool call's operands: a few tables, of the given widths
// in turn, with their bag lists, including an entry whose bags are all
// empty. The lists are authored as bags — what SLS and the oracle take —
// and flattened for Pool when the call is made.
type slsCall struct {
	tables []embedding.Table
	bags   [][]embedding.Bag
}

// denseAt builds a rows×dim table over storage the caller provides.
func denseAt(rng *rand.Rand, data []float32, rows, dim int, p Payload) *embedding.Dense {
	p.Fill(rng, data)
	return &embedding.Dense{RowsN: rows, DimN: dim, Data: data}
}

func newSLSCall(rng *rand.Rand, dims []int, p Payload, alloc func(n int) []float32) slsCall {
	var c slsCall
	for i, rows := range []int{37, 5, 64, 1} {
		dim := dims[i%len(dims)]
		c.tables = append(c.tables, denseAt(rng, alloc(rows*dim), rows, dim, p))
		c.bags = append(c.bags, slsBags(rng, rows, 9+4*i))
	}
	c.bags[1] = make([]embedding.Bag, 7) // an all-empty entry
	// Forty single lookups: more bags than one prefetch chunk holds.
	singles := make([]embedding.Bag, 40)
	for b := range singles {
		singles[b].Indices = []int32{int32(rng.Intn(c.tables[0].NumRows()))}
	}
	c.tables, c.bags = append(c.tables, c.tables[0]), append(c.bags, singles)
	return c
}

// interleaveQuantized puts a quantized entry of width dim after each of
// c's entries — int8 and int4 in turn, as many rows as the entry before
// it, storage from u16 and codes — so one prefetch chunk holds fp32 and
// quantized bags together.
func (c *slsCall) interleaveQuantized(rng *rand.Rand, dim int, u16 func(n int) []uint16, codes func(n int) []byte) {
	var tables []embedding.Table
	var bags [][]embedding.Bag
	for i, tab := range c.tables {
		bits := []quant.Bits{quant.Bits8, quant.Bits4}[i%2]
		rows := tab.NumRows()
		tables = append(tables, tab, quantAt(rng, rows, dim, bits, u16, codes))
		bags = append(bags, c.bags[i], slsBags(rng, rows, 9+4*i))
	}
	c.tables, c.bags = tables, bags
}

// oracle returns what each packed entry of the call must hold: refPool's
// rows over a dense table, quantPool's over a quantized one.
func (c slsCall) oracle() [][]float32 {
	want := make([][]float32, len(c.tables))
	for i, tab := range c.tables {
		switch tab := tab.(type) {
		case *embedding.Dense:
			want[i] = refPool(tab, c.bags[i])
		case *quant.RowQuantized:
			want[i] = quantPool(tab, c.bags[i])
		default:
			panic(fmt.Sprintf("kerneltest: no pooling oracle for %T", tab))
		}
	}
	return want
}

// pool runs the call through embedding.Pool, packed, and returns each
// entry's rows. out provides every entry's storage and ints its lengths
// and indices (so a test can guard them); the rows are filled with NaNs
// first, so one the kernel skipped shows.
func (c slsCall) pool(out func(n int) []float32, ints func(n int) []int32) [][]float32 {
	entries := make([]embedding.PoolEntry, len(c.tables))
	for i, tab := range c.tables {
		l := embedding.Flatten(c.bags[i])
		o := out(l.Present() * tab.Dim())
		for j := range o {
			o[j] = float32(math.NaN())
		}
		lens, idx := ints(len(l.Lens)), ints(len(l.Indices))
		copy(lens, l.Lens)
		copy(idx, l.Indices)
		entries[i] = embedding.PoolEntry{Table: tab, Lens: lens, Indices: idx, Out: o}
	}
	embedding.Pool(entries)
	res := make([][]float32, len(entries))
	for i := range entries {
		res[i] = entries[i].Out
	}
	return res
}

func heap(n int) []float32 { return make([]float32, n) }

func heapInts(n int) []int32 { return make([]int32, n) }

func heapU16(n int) []uint16 { return make([]uint16, n) }

func heapBytes(n int) []byte { return make([]byte, n) }

// TestSLSPackedDifferential: embedding.Pool under the generic family,
// and under the vector family at every lane width the host has, writes
// the oracle's bits into a packed entry — for every row width, on
// ordinary and on special-value tables (distinct NaN payloads, ±Inf,
// −0, subnormals: which NaN survives an add of two is part of the
// contract), with the tables at 32-byte-aligned and at odd bases — and
// SLS, the dense layout of the same kernel, agrees with it row for row.
// A second sweep interleaves int8 and int4 entries with the dense ones
// in one call, so a prefetch chunk holds both kinds, at every width 1–33
// (every decode body/tail split) and with fp16 headers that are NaN
// payloads, ±Inf and subnormals.
func TestSLSPackedDifferential(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(18))
	for _, dims := range slsDims {
		for _, p := range Payloads()[:3] {
			for _, offset := range []int{0, 1, 3} {
				alloc := func(n int) []float32 { return make([]float32, n+offset)[offset:] }
				c := newSLSCall(rng, dims, p, alloc)
				checkSLS(t, ds, c, fmt.Sprintf("dims=%v payload=%s offset=%d", dims, p.Name, offset))
			}
		}
	}
	for dim := 1; dim <= 33; dim++ {
		for _, p := range Payloads()[:3] {
			c := newSLSCall(rng, []int{dim}, p, heap)
			c.interleaveQuantized(rng, dim, heapU16, heapBytes)
			checkSLS(t, ds, c, fmt.Sprintf("interleaved dim=%d payload=%s", dim, p.Name))
		}
	}
}

// checkSLS runs the call under every dispatch and holds each entry to the
// oracle — packed through Pool, and in the dense layout through SLS.
func checkSLS(t *testing.T, ds []dispatch, c slsCall, label string) {
	t.Helper()
	wants := c.oracle()
	for _, d := range ds {
		d.set()
		got := c.pool(heap, heapInts)
		for i, tab := range c.tables {
			dim := tab.Dim()
			name := fmt.Sprintf("%s %v entry %d (%T)", label, d, i, tab)
			want := wants[i]
			if j := DiffFloat32(got[i], want); j >= 0 {
				t.Fatalf("%s: packed element %d = %08x, want %08x", name, j, bitsAt(got[i], j), bitsAt(want, j))
			}
			dense := make([]float32, len(c.bags[i])*dim)
			for j := range dense {
				dense[j] = float32(math.NaN())
			}
			embedding.SLS(dense, tab, c.bags[i])
			k := 0
			for b, bag := range c.bags[i] {
				row := dense[b*dim : (b+1)*dim]
				if len(bag.Indices) == 0 {
					for _, v := range row {
						if math.Float32bits(v) != 0 {
							t.Fatalf("%s: SLS left %08x in empty bag %d's row", name, math.Float32bits(v), b)
						}
					}
					continue
				}
				if j := DiffFloat32(row, want[k*dim:(k+1)*dim]); j >= 0 {
					t.Fatalf("%s: SLS bag %d element %d = %08x, want %08x", name, b, j, bitsAt(row, j), bitsAt(want, k*dim+j))
				}
				k++
			}
		}
	}
}

func bitsAt(xs []float32, i int) uint32 {
	if i >= len(xs) {
		return 0xdeadbeef // a length mismatch, not a value
	}
	return math.Float32bits(xs[i])
}

// TestSLSPackedBackends: a packed entry over a quantized, half-precision
// or tiered table holds exactly the non-empty bags' rows of the dense
// layout, under both families — the packing is the same walk whatever
// pools the row.
func TestSLSPackedBackends(t *testing.T) {
	defer resetDispatch()
	rng := rand.New(rand.NewSource(5))
	const rows, dim = 90, 19
	dense := embedding.NewDenseRandom(5, 0, rows, dim, 1)
	bags := slsBags(rng, rows, 30)
	for name, table := range map[string]embedding.Table{
		"int8": dense.Quantize(quant.Bits8), "int4": dense.Quantize(quant.Bits4),
		"fp16": dense.ToFP16(), "tiered": embedding.NewTiered(dense.Quantize(quant.Bits8), 16),
	} {
		for _, d := range dispatches(t) {
			d.set()
			want := make([]float32, len(bags)*dim)
			embedding.SLS(want, table, bags)
			l := embedding.Flatten(bags)
			got := make([]float32, l.Present()*dim)
			embedding.Pool([]embedding.PoolEntry{{Table: table, Lens: l.Lens, Indices: l.Indices, Out: got}})
			k := 0
			for b, bag := range bags {
				if len(bag.Indices) == 0 {
					continue
				}
				if j := DiffFloat32(got[k*dim:(k+1)*dim], want[b*dim:(b+1)*dim]); j >= 0 {
					t.Fatalf("%s %v: bag %d element %d differs between the packed and dense layouts", name, d, b, j)
				}
				k++
			}
		}
	}
}

// TestSLSRejectsBadIndex: an out-of-range index fails the call with SLS's
// message wherever it sits, in a dense entry or a quantized one, and a
// bag is validated whole before any of its indices becomes an address —
// to sum or to prefetch: with the bad index in the call's first bag,
// nothing at all has been written. A negative bag length, or lengths that
// run past the indices, fail the same way before the bag is even sliced.
func TestSLSRejectsBadIndex(t *testing.T) {
	defer resetDispatch()
	rng := rand.New(rand.NewSource(2))
	for _, bad := range []int32{-1, 37, math.MaxInt32, math.MinInt32} {
		for _, where := range []string{"first", "last", "quantized first"} {
			for _, d := range dispatches(t) {
				d.set()
				c := newSLSCall(rng, []int{16}, Payloads()[0], heap)
				c.interleaveQuantized(rng, 16, heapU16, heapBytes)
				entry := 0
				switch where {
				case "last":
					entry = len(c.bags) - 1
				case "quantized first":
					// The int8 entry behind the first dense one leads the call.
					c.tables[0], c.tables[1] = c.tables[1], c.tables[0]
					c.bags[0], c.bags[1] = c.bags[1], c.bags[0]
				}
				first := entry == 0
				if first {
					c.bags[0] = append([]embedding.Bag{{Indices: []int32{0, bad}}}, c.bags[0]...)
				} else {
					c.bags[entry] = append(c.bags[entry], embedding.Bag{Indices: []int32{0, bad}})
				}
				var outs [][]float32
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					c.pool(func(n int) []float32 {
						outs = append(outs, make([]float32, n))
						return outs[len(outs)-1]
					}, heapInts)
					return ""
				}()
				want := fmt.Sprintf("embedding: SLS index %d out of range [0,%d)", bad, c.tables[entry].NumRows())
				if !strings.Contains(msg, want) {
					t.Fatalf("bad index %d %s %v: panic %q, want %q", bad, where, d, msg, want)
				}
				for i, o := range outs {
					for j, v := range o {
						if first && v == v {
							t.Fatalf("bad index %d %s %v: entry %d element %d was written before the call was rejected", bad, where, d, i, j)
						}
					}
				}
			}
		}
	}
	tab := embedding.NewDense(4, 16)
	for name, e := range map[string]embedding.PoolEntry{
		"negative length":      {Table: tab, Lens: []int32{-1, 2}, Indices: []int32{1, 2}, Out: make([]float32, 32)},
		"lengths past the end": {Table: tab, Lens: []int32{1, 2}, Indices: []int32{1, 2}, Out: make([]float32, 32)},
	} {
		for _, d := range dispatches(t) {
			d.set()
			out := e.Out
			for j := range out {
				out[j] = float32(math.NaN())
			}
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				embedding.Pool([]embedding.PoolEntry{e})
				return ""
			}()
			if !strings.Contains(msg, "embedding: bag") {
				t.Fatalf("%s %v: panic %q, want the bag's length refused", name, d, msg)
			}
			if name == "negative length" && out[0] == out[0] {
				t.Fatalf("%s %v: a row was written before the call was rejected", name, d)
			}
		}
	}
}
