package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

func randomBags(rng *rand.Rand, n int) []embedding.Bag {
	bags := make([]embedding.Bag, n)
	for i := range bags {
		for j, k := 0, rng.Intn(5); j < k; j++ {
			bags[i].Indices = append(bags[i].Indices, int32(rng.Intn(1<<20)))
		}
	}
	return bags
}

func bagsEqual(a, b []embedding.Bag) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Indices) != len(b[i].Indices) {
			return false
		}
		for j := range a[i].Indices {
			if a[i].Indices[j] != b[i].Indices[j] {
				return false
			}
		}
	}
	return true
}

func TestSparseRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	req := &SparseRequest{
		Nets: []string{"net1", "net2"},
		Entries: []SparseEntry{
			{TableID: 3, PartIndex: 0, NumParts: 1, Bags: randomBags(rng, 4)},
			{TableID: 9, PartIndex: 2, NumParts: 4, Bags: randomBags(rng, 4)},
			{Net: 1, TableID: 11, PartIndex: 0, NumParts: 1, Bags: []embedding.Bag{{}, {}}},
		},
	}
	got, err := DecodeSparseRequest(EncodeSparseRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Nets, req.Nets) || len(got.Entries) != len(req.Entries) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range req.Entries {
		a, b := req.Entries[i], got.Entries[i]
		if a.Net != b.Net || a.TableID != b.TableID || a.PartIndex != b.PartIndex || a.NumParts != b.NumParts || !bagsEqual(a.Bags, b.Bags) {
			t.Errorf("entry %d mismatch", i)
		}
	}
}

func TestSparseResponseRoundTrip(t *testing.T) {
	resp := &SparseResponse{Entries: []PooledEntry{
		{TableID: 1, PartIndex: 0, Rows: 2, Cols: 3, Data: []float32{1, 2, 3, 4, 5, 6}},
		{TableID: 7, PartIndex: 1, Rows: 1, Cols: 2, Data: []float32{-1, 0.5}},
	}}
	got, err := DecodeSparseResponse(EncodeSparseResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	for i := range resp.Entries {
		a, b := resp.Entries[i], got.Entries[i]
		if a.TableID != b.TableID || a.Rows != b.Rows || a.Cols != b.Cols {
			t.Fatalf("entry %d header mismatch", i)
		}
		for j := range a.Data {
			if a.Data[j] != b.Data[j] {
				t.Fatalf("entry %d data mismatch at %d", i, j)
			}
		}
	}
}

func TestRankingRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dense := tensor.New(3, 4)
	for i := range dense.Data {
		dense.Data[i] = rng.Float32()
	}
	req := &RankingRequest{
		ID: 77, Items: 3,
		Dense: map[string]*tensor.Matrix{"net1": dense},
		Bags:  map[int32][]embedding.Bag{0: randomBags(rng, 3), 5: randomBags(rng, 3)},
	}
	got, err := DecodeRankingRequest(EncodeRankingRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 77 || got.Items != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	gd := got.Dense["net1"]
	if gd.Rows != 3 || gd.Cols != 4 {
		t.Fatalf("dense shape %dx%d", gd.Rows, gd.Cols)
	}
	for i := range dense.Data {
		if gd.Data[i] != dense.Data[i] {
			t.Fatal("dense data mismatch")
		}
	}
	if !bagsEqual(got.Bags[0], req.Bags[0]) || !bagsEqual(got.Bags[5], req.Bags[5]) {
		t.Error("bags mismatch")
	}
}

func TestRankingResponseRoundTrip(t *testing.T) {
	resp := &RankingResponse{Scores: []float32{0.1, 0.9, 0.5}}
	got, err := DecodeRankingResponse(EncodeRankingResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	for i := range resp.Scores {
		if got.Scores[i] != resp.Scores[i] {
			t.Fatal("scores mismatch")
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	req := &SparseRequest{Nets: []string{"n"}, Entries: []SparseEntry{{TableID: 1, NumParts: 1, Bags: randomBags(rng, 2)}}}
	full := EncodeSparseRequest(req)
	for cut := 1; cut < len(full); cut += 3 {
		if _, err := DecodeSparseRequest(full[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	resp := &SparseResponse{Entries: []PooledEntry{{Rows: 1, Cols: 2, Data: []float32{1, 2}}}}
	fullR := EncodeSparseResponse(resp)
	for cut := 1; cut < len(fullR); cut += 3 {
		if _, err := DecodeSparseResponse(fullR[:cut]); err == nil {
			t.Errorf("response truncation at %d accepted", cut)
		}
	}
}

func TestSparseRequestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		req := &SparseRequest{Nets: []string{"net2"}}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			req.Entries = append(req.Entries, SparseEntry{
				TableID:   int32(rng.Intn(100)),
				PartIndex: int32(rng.Intn(4)),
				NumParts:  int32(1 + rng.Intn(4)),
				Bags:      randomBags(rng, rng.Intn(4)),
			})
		}
		got, err := DecodeSparseRequest(EncodeSparseRequest(req))
		if err != nil || !slices.Equal(got.Nets, req.Nets) || len(got.Entries) != len(req.Entries) {
			return false
		}
		for i := range req.Entries {
			if !bagsEqual(req.Entries[i].Bags, got.Entries[i].Bags) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPooledEntryShapeValidation(t *testing.T) {
	resp := &SparseResponse{Entries: []PooledEntry{{Rows: 3, Cols: 2, Data: []float32{1, 2, 3, 4}}}}
	// Header offsets: 4 count + 4 tid + 4 part = 12 (Rows), 16 (Cols).
	for _, tc := range []struct {
		name   string
		off    int
		val    byte
		reject bool
	}{
		{"as sent: 2 of 3 bags present", 12, 3, false},
		{"every bag present", 12, 2, false},
		{"more rows than bags", 12, 1, true},
		{"not whole rows", 16, 3, true},
		{"values but no columns", 16, 0, true},
	} {
		buf := EncodeSparseResponse(resp)
		buf[tc.off] = tc.val
		if _, err := DecodeSparseResponse(buf); (err != nil) != tc.reject {
			t.Errorf("%s: err = %v, want rejected=%v", tc.name, err, tc.reject)
		}
	}
}
