package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
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
	bags0, bags5 := randomBags(rng, 3), randomBags(rng, 3)
	// Lengths read eight to a step, and a run with a two-byte one.
	short, long := randomBags(rng, 37), randomBags(rng, 37)
	long[20].Indices = make([]int32, 200)
	req := &RankingRequest{
		ID: 77, Items: 3,
		Dense: map[string]*tensor.Matrix{"net1": dense},
		Bags: []TableBags{
			{TableID: 0, BagList: embedding.Flatten(bags0)}, {TableID: 5, BagList: embedding.Flatten(bags5)},
			{TableID: 6, BagList: embedding.Flatten(short)}, {TableID: 7, BagList: embedding.Flatten(long)},
		},
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
	got0, ok0 := got.BagsOf(0)
	got5, ok5 := got.BagsOf(5)
	got6, _ := got.BagsOf(6)
	got7, _ := got.BagsOf(7)
	if !ok0 || !ok5 || !bagsEqual(got0.Bags(), bags0) || !bagsEqual(got5.Bags(), bags5) || !bagsEqual(got6.Bags(), short) || !bagsEqual(got7.Bags(), long) {
		t.Error("bags mismatch")
	}
	if _, ok := got.BagsOf(3); ok {
		t.Error("a table the request does not carry was found")
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

// TestDecodeRejectsDuplicates: a ranking request that names a table or a
// dense net twice is refused with an error naming it — silently serving
// the later occurrence would score a request its sender did not mean —
// while tables merely out of order are put in order.
func TestDecodeRejectsDuplicates(t *testing.T) {
	one := embedding.Flatten([]embedding.Bag{{Indices: []int32{3}}})
	req := &RankingRequest{
		ID: 1, Items: 1,
		Dense: map[string]*tensor.Matrix{"net1": tensor.New(1, 1)},
		Bags:  []TableBags{{TableID: 4, BagList: one}, {TableID: 2, BagList: one}},
	}
	got, err := DecodeRankingRequest(EncodeRankingRequest(req))
	if err != nil || len(got.Bags) != 2 || got.Bags[0].TableID != 2 || got.Bags[1].TableID != 4 {
		t.Fatalf("tables out of order: %+v, %v; want them accepted and sorted", got, err)
	}
	for _, ids := range [][]int32{{4, 4}, {4, 2, 4}, {2, 4, 2}} {
		req.Bags = nil
		for _, id := range ids {
			req.Bags = append(req.Bags, TableBags{TableID: id, BagList: one})
		}
		if _, err := DecodeRankingRequest(EncodeRankingRequest(req)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("table %d twice", ids[len(ids)-1])) {
			t.Errorf("tables %v: err = %v, want the repeated table named", ids, err)
		}
	}
	// A repeated net cannot be authored through the map; splice its bytes
	// in: id, items, the net count, then the one net's encoding twice.
	req.Bags = nil
	b := EncodeRankingRequest(req)
	net := b[16 : len(b)-4]
	dup := append(append(append(append([]byte(nil), b[:12]...), 2, 0, 0, 0), net...), net...)
	dup = append(dup, 0, 0, 0, 0)
	if _, err := DecodeRankingRequest(dup); err == nil || !strings.Contains(err.Error(), `"net1" twice`) {
		t.Errorf("net named twice: err = %v, want it named", err)
	}
}

// TestRequestFuzzSeeds holds every committed seed of the two request
// fuzzers to its intent: the hostile ones are refused by the typed
// decoder and by the in-place reader the serving path uses, the
// well-formed ones decode.
func TestRequestFuzzSeeds(t *testing.T) {
	hostile := map[string]bool{
		"seed-huge-count": true, "seed-huge-net-count": true, "seed-huge-table-count": true,
		"seed-huge-entry-count": true, "seed-huge-bag-count": true, "seed-net-out-of-range": true,
		"seed-lens-past-end": true, "seed-lens-sum-wraps": true, "seed-len-top-bit": true, "seed-bag-count-past-end": true,
		"seed-table-twice": true, "seed-table-twice-unsorted": true, "seed-net-twice": true,
		"seed-len-six-bytes": true, "seed-len-past-end": true, "seed-pad-nonzero": true,
	}
	for target, decode := range map[string]func([]byte) error{
		"FuzzRankingRequest": func(b []byte) error { _, err := DecodeRankingRequest(b); return err },
		"FuzzSparseRequest": func(b []byte) error {
			_, typedErr := DecodeSparseRequest(b)
			_, _, err := readRun(b)
			if (typedErr == nil) != (err == nil) {
				t.Errorf("typed decoder: %v; in-place reader: %v", typedErr, err)
			}
			return err
		},
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		seeds, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		rejected := 0
		for _, seed := range seeds {
			text, err := os.ReadFile(filepath.Join(dir, seed.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lit, ok := strings.CutPrefix(strings.TrimSpace(string(text)), "go test fuzz v1\n[]byte(")
			if !ok {
				t.Fatalf("%s/%s is not a one-argument []byte seed", target, seed.Name())
			}
			body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s/%s: %v", target, seed.Name(), err)
			}
			if err := decode([]byte(body)); (err != nil) != hostile[seed.Name()] {
				t.Errorf("%s/%s: err = %v, want rejected=%v", target, seed.Name(), err, hostile[seed.Name()])
			}
			if hostile[seed.Name()] {
				rejected++
			}
		}
		if rejected < 6 || len(seeds)-rejected < 4 {
			t.Errorf("%s: %d hostile and %d well-formed seeds found; the corpus has gone missing", target, rejected, len(seeds)-rejected)
		}
	}
}

// TestRankDecodeAllocatesAtMostFourTimesItsLengths: a rank body's
// lengths cost at least one byte each, and the decoder expands them into
// 4 bytes each only after a first walk has checked every table — so a
// body that is all lengths (2¹⁶ empty bags) allocates at most 4× their
// bytes beyond a constant, and one refused at its last length (past the
// indices sent, a pad byte that is not zero) allocates nothing sized by
// them. The constant covers the request, its table list, and the runtime
// rounding a large allocation up to whole 8 KiB pages.
func TestRankDecodeAllocatesAtMostFourTimesItsLengths(t *testing.T) {
	const bags, fixed = 1 << 16, 16 << 10
	// One table of bags+1 bags: bags empty ones, the last of length last,
	// then three bytes of padding, the first of them pad.
	body := func(last, pad byte) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 1)
		for _, v := range []uint32{bags + 1, 0, 1, 3, bags + 1} { // items, nets, tables, table id, bag count
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		b = append(b, make([]byte, bags)...)
		return append(b, last, pad, 0, 0)
	}
	// TotalAlloc is process-wide: what other goroutines allocate only adds,
	// so the least of several decodes is what one decode allocates.
	allocated := func(b []byte) (uint64, error) {
		least, err := uint64(math.MaxUint64), error(nil)
		for i := 0; i < 5; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err = DecodeRankingRequest(b)
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		return least, err
	}
	for _, tc := range []struct {
		name      string
		body      []byte
		refused   bool
		lensBytes uint64
	}{
		{"every bag empty", body(0, 0), false, bags + 4},
		{"the last length runs past the indices", body(1, 0), true, 0},
		{"a pad byte is not zero", body(0, 1), true, 0},
	} {
		got, err := allocated(tc.body)
		if (err != nil) != tc.refused {
			t.Fatalf("%s: err = %v, want refused=%v", tc.name, err, tc.refused)
		}
		if ceiling := 4*tc.lensBytes + fixed; got > ceiling && !raceEnabled {
			t.Errorf("%s: %d bytes allocated for %d bytes of lengths, ceiling %d", tc.name, got, tc.lensBytes, ceiling)
		} else {
			t.Logf("%s: %d bytes allocated (ceiling %d)", tc.name, got, ceiling)
		}
	}
}
