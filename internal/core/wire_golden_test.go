package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// The golden messages below were encoded into testdata/wire/*.bin by the
// codecs of the commit before the presized encoders (the append-and-grow
// buffer encoders this package no longer has). The wire format is a
// contract with every deployed peer: the encoders must reproduce those
// bytes exactly and the flat decoders must read them, on the in-place and
// the conversion path. The two sparse.run goldens were regenerated since,
// deliberately, each for a format change and each written out field by
// field from the new layout, not by the encoder under test:
// sparse_request.bin when the request-level call began naming its nets up
// front and tagging every entry with one (a net count and names where the
// single net name was, a fourth id per entry); sparse_response.bin when
// pooled rows became packed (an entry's float count is Cols × its
// non-empty bags, no longer Rows × Cols); and sparse_request.bin again,
// with ranking_request.bin, when a bag list's bytes were regrouped from
// interleaved (n, then a length and its indices per bag) to flat (n, every
// length, then every index) — the same size, read in place; and
// ranking_request.bin alone when a rank bag list's lengths became LEB128
// varints padded to a multiple of 4 (the fixture gained a table whose bag
// of 130 indices takes a two-byte length).
// table_release.bin, the one control-plane golden, was written the same
// way when table.release replaced table.forward.

func goldenBags(spec ...[]int32) []embedding.Bag {
	out := make([]embedding.Bag, len(spec))
	for i, idx := range spec {
		if len(idx) > 0 {
			out[i].Indices = idx
		}
	}
	return out
}

// goldenRun is one bag of n indices, 0 to n-1.
func goldenRun(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func goldenSparseRequest() *SparseRequest {
	return &SparseRequest{Nets: []string{"net1", "net2"}, Entries: []SparseEntry{
		{Net: 0, TableID: 3, PartIndex: 0, NumParts: 1, Bags: goldenBags([]int32{7, 1 << 20, 0}, nil, []int32{2147483647})},
		{Net: 0, TableID: 9, PartIndex: 2, NumParts: 4, Bags: goldenBags(nil, nil, nil)},
		{Net: 1, TableID: 256, PartIndex: 0, NumParts: 1, Bags: goldenBags([]int32{5}, []int32{6, 6}, []int32{-1})},
	}}
}

func goldenSparseResponse() *SparseResponse {
	tiny := math.Float32frombits(1) // smallest denormal
	negZero := math.Float32frombits(0x80000000)
	return &SparseResponse{Entries: []PooledEntry{
		{TableID: 3, PartIndex: 0, Rows: 3, Cols: 2, Data: []float32{1, -2.5, negZero, tiny}}, // 2 of 3 bags present
		{TableID: 9, PartIndex: 2, Rows: 3, Cols: 1, Data: nil},                               // none present
		{TableID: 256, PartIndex: 0, Rows: 0, Cols: 4, Data: nil},
		{TableID: 7, PartIndex: 1, Rows: 2, Cols: 2, Data: []float32{float32(math.Inf(1)), 3.4028235e38, 0, 3}}, // all present
	}}
}

func goldenRankingRequest() *RankingRequest {
	return &RankingRequest{
		ID: 0xfeedfacecafe, Items: 3,
		Dense: map[string]*tensor.Matrix{
			"net2": tensor.FromSlice(3, 1, []float32{0.5, -0.25, 8}),
			"net1": tensor.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6}),
		},
		Bags: []TableBags{
			{TableID: 0, BagList: embedding.Flatten(goldenBags(nil, nil, nil))},
			{TableID: 2, BagList: embedding.Flatten(goldenBags([]int32{9}, []int32{8, 7}, []int32{6, 5, 4}))},
			{TableID: 5, BagList: embedding.Flatten(goldenBags([]int32{1, 2, 3}, nil, []int32{4}))},
			{TableID: 7, BagList: embedding.Flatten(goldenBags(goldenRun(130), nil))},
		},
	}
}

func goldenRankingResponse() *RankingResponse {
	return &RankingResponse{Scores: []float32{0.125, 0.5, 0.999}}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// bothWirePaths runs f on the host's own path and with the conversion
// path forced, the one a big-endian host takes.
func bothWirePaths(t *testing.T, f func(t *testing.T)) {
	t.Run("host", f)
	t.Run("conversion", func(t *testing.T) {
		forceConversionPath(t)
		f(t)
	})
}

func TestWireGolden(t *testing.T) {
	bothWirePaths(t, func(t *testing.T) {
		if got, want := EncodeSparseRequest(goldenSparseRequest()), readGolden(t, "sparse_request.bin"); !bytes.Equal(got, want) {
			t.Errorf("sparse request encodes to\n%x\nwant\n%x", got, want)
		}
		if got, want := EncodeSparseResponse(goldenSparseResponse()), readGolden(t, "sparse_response.bin"); !bytes.Equal(got, want) {
			t.Errorf("sparse response encodes to\n%x\nwant\n%x", got, want)
		}
		if got, want := EncodeRankingRequest(goldenRankingRequest()), readGolden(t, "ranking_request.bin"); !bytes.Equal(got, want) {
			t.Errorf("ranking request encodes to\n%x\nwant\n%x", got, want)
		}
		if got, want := EncodeRankingResponse(goldenRankingResponse()), readGolden(t, "ranking_response.bin"); !bytes.Equal(got, want) {
			t.Errorf("ranking response encodes to\n%x\nwant\n%x", got, want)
		}

		sreq, err := DecodeSparseRequest(readGolden(t, "sparse_request.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if want := goldenSparseRequest(); !reflect.DeepEqual(sreq, want) {
			t.Errorf("sparse request decodes to %+v, want %+v", sreq, want)
		}
		sresp, err := DecodeSparseResponse(readGolden(t, "sparse_response.bin"))
		if err != nil {
			t.Fatal(err)
		}
		// Bit patterns, not ==: the fixture carries -0 and a denormal.
		if got, want := EncodeSparseResponse(sresp), readGolden(t, "sparse_response.bin"); !bytes.Equal(got, want) {
			t.Errorf("sparse response does not survive decode → encode")
		}
		for i, e := range goldenSparseResponse().Entries {
			g := sresp.Entries[i]
			if g.TableID != e.TableID || g.PartIndex != e.PartIndex || g.Rows != e.Rows || g.Cols != e.Cols || len(g.Data) != len(e.Data) {
				t.Errorf("sparse response entry %d header %+v, want %+v", i, g, e)
			}
		}
		rreq, err := DecodeRankingRequest(readGolden(t, "ranking_request.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if want := goldenRankingRequest(); !reflect.DeepEqual(rreq, want) {
			t.Errorf("ranking request decodes to %+v, want %+v", rreq, want)
		}
		rresp, err := DecodeRankingResponse(readGolden(t, "ranking_response.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if want := goldenRankingResponse(); !reflect.DeepEqual(rresp, want) {
			t.Errorf("ranking response decodes to %+v, want %+v", rresp, want)
		}
	})
}

// TestTableReleaseGolden: a table.release body is the table and the part
// as two little-endian u32 values, nothing else.
func TestTableReleaseGolden(t *testing.T) {
	golden := readGolden(t, "table_release.bin")
	msg := TableRelease{TableID: 0x201, PartIndex: 3}
	if got := encodeMsg(&msg); !bytes.Equal(got, golden) {
		t.Errorf("table release encodes to %x, want %x", got, golden)
	}
	if got, err := decodeMsg[TableRelease](golden); err != nil || *got != msg {
		t.Errorf("table release decodes to %+v (err %v), want %+v", got, err, msg)
	}
}
