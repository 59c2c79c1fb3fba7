package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// Fuzzers for the serving-path codecs. A sparse shard reads sparse.run
// requests, and the main shard rank requests and sparse responses,
// straight off the wire, so each target feeds arbitrary bytes to one
// decoder and requires that it fails cleanly or yields a message whose
// every count the input could actually carry (nothing is sized by an
// unchecked wire integer) and that survives a further encode → decode.
// Each also builds a message *from* the input and requires encode →
// decode to return it, so the exploration covers well-formed messages
// the mutator would rarely assemble by chance. The hostile seeds live in
// testdata/fuzz: a 4-byte body demanding 2^32 of something, counts the
// body cannot hold at each nesting level, bag lists whose lengths run past
// the indices sent, add up to a fit only in 32 bits, or have their top bit
// set, a rank length in six varint bytes, running off the body or
// followed by a non-zero pad byte, a ranking request naming a table or a
// net twice, and pooled
// entries whose value count is not whole rows (under a 65536×65536 shape,
// 0 values in 32-bit arithmetic), exceeds their bags, or comes with no
// columns — beside the well-formed shapes: no bags, only empty bags, one
// bag holding every index, tables out of order; packed rows fewer than
// bags, none, no columns (TestRequestFuzzSeeds says which seed is which).

// fuzzBags turns input bytes into a bag list: each byte's low bits give
// a bag's length, the following bytes its indices.
func fuzzBags(b []byte) []embedding.Bag {
	var out []embedding.Bag
	for len(b) > 0 {
		n := int(b[0] & 3)
		b = b[1:]
		var bag embedding.Bag
		for ; n > 0 && len(b) > 0; n-- {
			bag.Indices = append(bag.Indices, int32(b[0])<<16|int32(b[0]))
			b = b[1:]
		}
		out = append(out, bag)
	}
	return out
}

func bagCounts(t *testing.T, bags []embedding.Bag, input []byte) {
	t.Helper()
	if 4*(len(bags)+embedding.TotalLookups(bags)) > len(input) {
		t.Fatalf("decoded %d bags with %d indices from %d bytes", len(bags), embedding.TotalLookups(bags), len(input))
	}
}

// listCounts is bagCounts for a list read in place, whose lengths must
// also be what its indices add up to; a length takes at least lenBytes
// of the input (4 in a sparse.run list, 1 as a rank varint).
func listCounts(t *testing.T, l embedding.BagList, input []byte, lenBytes int) {
	t.Helper()
	sum := 0
	for _, n := range l.Lens {
		if n < 0 {
			t.Fatalf("decoder accepted a bag of length %d", n)
		}
		sum += int(n)
	}
	if sum != len(l.Indices) || lenBytes*len(l.Lens)+4*len(l.Indices) > len(input) {
		t.Fatalf("decoded %d bags of %d indices over %d, from %d bytes", len(l.Lens), sum, len(l.Indices), len(input))
	}
}

func FuzzSparseRequest(f *testing.F) {
	f.Add(EncodeSparseRequest(goldenSparseRequest()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := DecodeSparseRequest(b); err == nil {
			size := 20 * len(req.Entries)
			for _, net := range req.Nets {
				size += 4 + len(net)
			}
			if size > len(b) {
				t.Fatalf("decoded %d entries and %d nets from %d bytes", len(req.Entries), len(req.Nets), len(b))
			}
			for _, e := range req.Entries {
				if e.Net < 0 || int(e.Net) >= len(req.Nets) {
					t.Fatalf("decoder accepted net %d of %d", e.Net, len(req.Nets))
				}
				bagCounts(t, e.Bags, b)
			}
			// The request grammar is prefix-free and order-preserving:
			// re-encoding must give back exactly the bytes consumed.
			if enc := EncodeSparseRequest(req); !bytes.HasPrefix(b, enc) {
				t.Fatalf("decode → encode changed the bytes:\n%x\n%x", b, enc)
			}
			// The in-place walk a shard serves from must agree.
			p, err := readSparse(b)
			if err != nil || p.left != len(req.Entries) {
				t.Fatalf("readSparse: %d entries, %v; decoder saw %d", p.left, err, len(req.Entries))
			}
			for _, e := range req.Entries {
				v, err := p.next()
				if err != nil || v.TableID != e.TableID || v.present != embedding.Flatten(e.Bags).Present() || !bagsEqual(v.Bags(), e.Bags) {
					t.Fatalf("in-place walk disagrees with the decoder on entry %+v: %+v, %v", e, v, err)
				}
				listCounts(t, v.BagList, b, 4)
			}
		}

		bags := fuzzBags(b)
		req := &SparseRequest{Nets: []string{string(b[:min(len(b), 5)]), "net2"}, Entries: []SparseEntry{
			{TableID: int32(len(b)), NumParts: 1, Bags: bags},
			{Net: 1, TableID: 7, PartIndex: 1, NumParts: 3, Bags: bags[:len(bags)/2]},
		}}
		got, err := DecodeSparseRequest(EncodeSparseRequest(req))
		if err != nil {
			t.Fatalf("round trip of %+v: %v", req, err)
		}
		if !slices.Equal(got.Nets, req.Nets) || len(got.Entries) != len(req.Entries) {
			t.Fatalf("round trip: %+v -> %+v", req, got)
		}
		for i, e := range req.Entries {
			g := got.Entries[i]
			if g.Net != e.Net || g.TableID != e.TableID || g.PartIndex != e.PartIndex || g.NumParts != e.NumParts || !bagsEqual(g.Bags, e.Bags) {
				t.Fatalf("round trip entry %d: %+v -> %+v", i, e, g)
			}
		}
	})
}

func FuzzSparseResponse(f *testing.F) {
	f.Add(EncodeSparseResponse(goldenSparseResponse()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if resp, err := DecodeSparseResponse(b); err == nil {
			total := 0
			for _, e := range resp.Entries {
				if n := int64(len(e.Data)); e.Rows < 0 || e.Cols < 0 || n > int64(e.Rows)*int64(e.Cols) || (n > 0 && n%int64(e.Cols) != 0) {
					t.Fatalf("decoder accepted %d values for %dx%d", len(e.Data), e.Rows, e.Cols)
				}
				total += len(e.Data)
			}
			if 20*len(resp.Entries)+4*total > len(b) {
				t.Fatalf("decoded %d entries with %d values from %d bytes", len(resp.Entries), total, len(b))
			}
			if enc := EncodeSparseResponse(resp); !bytes.HasPrefix(b, enc) {
				t.Fatalf("decode → encode changed the bytes:\n%x\n%x", b, enc)
			}
			// The in-place walk the serving path uses must agree.
			p, err := readPooled(b)
			if err != nil || p.left != len(resp.Entries) {
				t.Fatalf("readPooled: %d entries, %v; decoder saw %d", p.left, err, len(resp.Entries))
			}
			for _, e := range resp.Entries {
				s, rows, err := p.next()
				if err != nil || s.TableID != e.TableID || s.Rows != e.Rows || s.Cols != e.Cols || s.n != len(e.Data) || !bytes.Equal(rows, appendF32s(nil, e.Data)) {
					t.Fatalf("in-place walk disagrees with the decoder on entry %+v: %+v, %v", e, s, err)
				}
			}
		}

		vals := make([]float32, len(b)/2*2)
		for i := range vals {
			vals[i] = float32(int8(b[i])) / 4
		}
		resp := &SparseResponse{Entries: []PooledEntry{
			{TableID: int32(len(b)), Rows: int32(len(vals)/2 + len(b)%3), Cols: 2, Data: vals},
			{TableID: 1, PartIndex: 2, Rows: int32(len(b)), Cols: 8},
		}}
		got, err := DecodeSparseResponse(EncodeSparseResponse(resp))
		if err != nil {
			t.Fatalf("round trip of %+v: %v", resp, err)
		}
		for i, e := range resp.Entries {
			g := got.Entries[i]
			if g.TableID != e.TableID || g.PartIndex != e.PartIndex || g.Rows != e.Rows || g.Cols != e.Cols || !sameBits(g.Data, e.Data) {
				t.Fatalf("round trip entry %d: %+v -> %+v", i, e, g)
			}
		}
	})
}

func FuzzRankingRequest(f *testing.F) {
	f.Add(EncodeRankingRequest(goldenRankingRequest()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := DecodeRankingRequest(b); err == nil {
			if 16*len(req.Dense)+8*len(req.Bags) > len(b) {
				t.Fatalf("decoded %d nets and %d tables from %d bytes", len(req.Dense), len(req.Bags), len(b))
			}
			for name, m := range req.Dense {
				if len(m.Data) != m.Rows*m.Cols || 4*len(m.Data) > len(b) {
					t.Fatalf("dense %q: %d values for %dx%d from %d bytes", name, len(m.Data), m.Rows, m.Cols, len(b))
				}
			}
			for i, tb := range req.Bags {
				listCounts(t, tb.BagList, b, 1)
				if i > 0 && req.Bags[i-1].TableID >= tb.TableID {
					t.Fatalf("decoder left table %d after table %d", tb.TableID, req.Bags[i-1].TableID)
				}
			}
			// Nets are written in name order and tables in id order
			// whatever order they came in, so the input bytes need not come
			// back — but the message's own must (compared as bytes: the
			// dense floats may be NaNs).
			enc := EncodeRankingRequest(req)
			again, err := DecodeRankingRequest(enc)
			if err != nil || !bytes.Equal(EncodeRankingRequest(again), enc) {
				t.Fatalf("decode → encode → decode: %+v -> %+v (err %v)", req, again, err)
			}
		}

		bags := fuzzBags(b)
		dense := make([]float32, len(bags)*2)
		for i := range dense {
			dense[i] = float32(i) - 0.5
		}
		req := &RankingRequest{
			ID: uint64(len(b)) << 33, Items: int32(len(bags)),
			Dense: map[string]*tensor.Matrix{"net1": tensor.FromSlice(len(bags), 2, dense)},
			Bags:  []TableBags{{TableID: 0, BagList: embedding.Flatten(bags)}, {TableID: 9, BagList: embedding.Flatten(bags)}},
		}
		got, err := DecodeRankingRequest(EncodeRankingRequest(req))
		if err != nil {
			t.Fatalf("round trip of %+v: %v", req, err)
		}
		got0, _ := got.BagsOf(0)
		got9, _ := got.BagsOf(9)
		if got.ID != req.ID || got.Items != req.Items || !sameBits(got.Dense["net1"].Data, dense) ||
			len(got.Bags) != 2 || !bagsEqual(got0.Bags(), bags) || !bagsEqual(got9.Bags(), bags) {
			t.Fatalf("round trip: %+v -> %+v", req, got)
		}
	})
}
