package nn

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

func TestWorkspaceBlobLifecycle(t *testing.T) {
	ws := NewWorkspace()
	if ws.HasBlob("x") {
		t.Error("fresh workspace should be empty")
	}
	if _, err := ws.Blob("x"); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("missing blob error should name the blob, got %v", err)
	}
	m := tensor.New(1, 1)
	ws.SetBlob("x", m)
	got, err := ws.Blob("x")
	if err != nil || got != m {
		t.Errorf("Blob returned %v, %v", got, err)
	}
}

// TestWorkspaceRecycle pins the pooled workspace's contract: storage is
// reused by name only after Recycle, AllocBlobZero clears what it reuses,
// storage passed in with SetBlob never becomes spare, and Recycle drops
// every blob, block table and bag list.
func TestWorkspaceRecycle(t *testing.T) {
	same := func(a, b *tensor.Matrix) bool { return &a.Data[0] == &b.Data[0] }
	ws := NewWorkspace()
	first := ws.AllocBlob("a", 2, 3)
	a := ws.AllocBlob("a", 2, 3)
	if same(first, a) {
		t.Error("a name allocated twice in one run shares storage")
	}
	for i := range a.Data {
		a.Data[i] = float32(i + 1)
	}
	ws.SetBlob("a", a)
	in := tensor.New(2, 3)
	ws.SetBlob("in", in)
	ws.SetBlocks("emb", &tensor.Blocks{Rows: 2})
	ws.SetBags("f", embedding.BagList{Lens: []int32{1}, Indices: []int32{1}})

	ws.Recycle()
	if ws.HasBlob("a") || ws.HasBlob("in") {
		t.Error("blobs survive Recycle")
	}
	if _, err := ws.Blocks("emb"); err == nil {
		t.Error("block table survives Recycle")
	}
	if _, err := ws.Bags("f"); err == nil {
		t.Error("bags survive Recycle")
	}
	if got := ws.AllocBlob("in", 2, 3); same(got, in) {
		t.Error("SetBlob storage was handed out again")
	}
	got := ws.AllocBlob("a", 2, 3)
	if !same(got, a) {
		t.Fatal("AllocBlob after Recycle did not reuse the name's storage")
	}
	if got.Data[5] != 6 {
		t.Errorf("reused storage = %v, want the last run's values (AllocBlob does not clear)", got.Data)
	}
	again := ws.AllocBlob("a", 2, 3)
	if same(again, got) {
		t.Error("storage handed out twice in one run")
	}
	for i := range again.Data {
		again.Data[i] = 9
	}

	ws.Recycle()
	z := ws.AllocBlobZero("a", 2, 3)
	if !same(z, again) {
		t.Fatal("AllocBlobZero after Recycle did not reuse the name's last storage")
	}
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("AllocBlobZero left reused element %d = %v", i, v)
		}
	}

	// Storage too small for the new shape is replaced, not overrun.
	ws.Recycle()
	if big := ws.AllocBlob("a", 4, 3); len(big.Data) != 12 || same(big, z) {
		t.Errorf("grown blob has %d elements over the old storage", len(big.Data))
	}
}

func TestWorkspaceBags(t *testing.T) {
	ws := NewWorkspace()
	if _, err := ws.Bags("f"); err == nil {
		t.Error("missing bags should error")
	}
	ws.SetBags("f", embedding.BagList{Lens: []int32{1}, Indices: []int32{1}})
	b, err := ws.Bags("f")
	if err != nil || len(b.Lens) != 1 {
		t.Errorf("Bags = %v, %v", b, err)
	}
}

func TestFCKnownValues(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("in", tensor.FromSlice(1, 2, []float32{1, 2}))
	op := &FC{
		OpName: "fc1",
		W:      tensor.FromSlice(2, 2, []float32{1, 0, 0, 1}),
		B:      []float32{10, 20},
		Input:  "in", Output: "out",
	}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	out, _ := ws.Blob("out")
	if out.Data[0] != 11 || out.Data[1] != 22 {
		t.Errorf("FC out = %v", out.Data)
	}
	if op.Kind() != KindDense || op.Name() != "fc1" {
		t.Error("FC metadata wrong")
	}
}

func TestFCShapeError(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("in", tensor.New(1, 3))
	op := &FC{OpName: "fc", W: tensor.New(2, 2), Input: "in", Output: "out"}
	if err := op.Run(ws); err == nil {
		t.Error("expected shape error")
	}
}

func TestFCMissingInput(t *testing.T) {
	op := &FC{OpName: "fc", W: tensor.New(2, 2), Input: "nope", Output: "out"}
	if err := op.Run(NewWorkspace()); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error should name missing blob: %v", err)
	}
}

func TestActivations(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("x", tensor.FromSlice(1, 2, []float32{-1, 1}))
	relu := &Activation{OpName: "relu", Func: ActReLU, Blob: "x"}
	if err := relu.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("x")
	if m.Data[0] != 0 || m.Data[1] != 1 {
		t.Errorf("ReLU = %v", m.Data)
	}
	sig := &Activation{OpName: "sig", Func: ActSigmoid, Blob: "x"}
	if err := sig.Run(ws); err != nil {
		t.Fatal(err)
	}
	if m.Data[0] != 0.5 {
		t.Errorf("Sigmoid(0) = %v", m.Data[0])
	}
	bad := &Activation{OpName: "bad", Func: ActivationFunc(99), Blob: "x"}
	if err := bad.Run(ws); err == nil {
		t.Error("unknown activation should error")
	}
}

func TestScaleClip(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("x", tensor.FromSlice(1, 3, []float32{-4, 1, 4}))
	op := &ScaleClip{OpName: "sc", Scale: 2, Lo: -3, Hi: 5, Blob: "x"}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("x")
	want := []float32{-3, 2, 5}
	for i, w := range want {
		if m.Data[i] != w {
			t.Errorf("data[%d] = %v, want %v", i, m.Data[i], w)
		}
	}
	if op.Kind() != KindScaleClip {
		t.Error("kind wrong")
	}
}

// TestHashAllBags: every index is hashed into its entry's bucket range,
// deterministically, into a capacity-capped range of one flat array; the
// raw input — possibly a view of a frame — is left as it was.
func TestHashAllBags(t *testing.T) {
	raw := []int32{12345, 67890, -5}
	op := &HashAllBags{OpName: "hash", Entries: []HashEntry{
		{Buckets: 100, In: raw}, {Buckets: 7}, {Buckets: 3, In: []int32{1 << 30, 0}},
	}}
	if err := op.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(raw, []int32{12345, 67890, -5}) {
		t.Errorf("hashing wrote its input: %v", raw)
	}
	first := make([][]int32, len(op.Entries))
	for i, e := range op.Entries {
		if len(e.Out) != len(e.In) || cap(e.Out) != len(e.Out) {
			t.Errorf("entry %d: %d hashed (cap %d) for %d raw", i, len(e.Out), cap(e.Out), len(e.In))
		}
		for _, idx := range e.Out {
			if idx < 0 || idx >= e.Buckets {
				t.Errorf("entry %d: hashed index %d outside [0,%d)", i, idx, e.Buckets)
			}
		}
		first[i] = e.Out
	}
	if err := op.Run(nil); err != nil {
		t.Fatal(err)
	}
	for i, e := range op.Entries {
		if !slices.Equal(e.Out, first[i]) {
			t.Error("hashing should be deterministic")
		}
	}
	if op.Kind() != KindHash {
		t.Error("kind wrong")
	}
	op.Entries[1].Buckets = 0
	if err := op.Run(nil); err == nil {
		t.Error("zero buckets should error")
	}
}

func TestFill(t *testing.T) {
	ws := NewWorkspace()
	op := &Fill{OpName: "fill", Rows: 2, Cols: 3, Value: 7, Output: "f"}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("f")
	if m.Rows != 2 || m.Cols != 3 || m.Data[5] != 7 {
		t.Errorf("Fill = %v", m)
	}
}

// TestMultiSLSPoolsIntoCallerStorage: the op overwrites the storage it is
// handed (stale contents must not leak into the sums) — one row per
// non-empty bag when packed, every bag's row in the strided layout —
// needs no workspace, and a net turns its operand faults into errors.
func TestMultiSLSPoolsIntoCallerStorage(t *testing.T) {
	tab := embedding.NewDense(4, 2)
	copy(tab.Data, []float32{1, 1, 2, 2, 3, 3, 4, 4})
	lens, idx := []int32{2, 0, 1}, []int32{0, 3, 2}
	packed := []float32{9, 9, 9, 9}
	strided := []float32{9, 9, 9, 9, 9, 9, 9, 9}
	op := &MultiSLS{OpName: "multi", Entries: []embedding.PoolEntry{
		{Table: tab, Lens: lens, Indices: idx, Out: packed},
		{Table: tab, Lens: lens, Indices: idx, Out: strided, Stride: 3},
	}}
	net := &Net{NetName: "n", Ops: []Op{op}}
	if err := net.Run(nil, nil); err != nil {
		t.Fatal(err)
	}
	if want := []float32{5, 5, 3, 3}; !slices.Equal(packed, want) {
		t.Errorf("packed = %v, want %v", packed, want)
	}
	if want := []float32{5, 5, 9, 0, 0, 9, 3, 3}; !slices.Equal(strided, want) {
		t.Errorf("strided = %v, want %v", strided, want)
	}
	if op.Kind() != KindSparse {
		t.Error("MultiSLS kind should be Sparse")
	}
	op.Entries[0].Out = packed[:2]
	if err := net.Run(nil, nil); err == nil || !strings.Contains(err.Error(), "multi") {
		t.Errorf("short output storage: err = %v, want the operator's failure", err)
	}
	op.Entries[0].Out = packed
	op.Entries[1].Out = strided[:7]
	if err := net.Run(nil, nil); err == nil {
		t.Error("strided storage short of the last row must fail the net")
	}
	op.Entries[1].Out = strided
	op.Entries[1].Indices = []int32{0, 4, 2}
	if err := net.Run(nil, nil); err == nil {
		t.Error("out-of-range index must fail the net")
	}
	op.Entries[1].Indices = idx
	op.Entries[1].Lens = []int32{2, -1, 1}
	if err := net.Run(nil, nil); err == nil {
		t.Error("negative bag length must fail the net")
	}
}

func TestConcatOp(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("a", tensor.FromSlice(1, 1, []float32{1}))
	ws.SetBlob("b", tensor.FromSlice(1, 2, []float32{2, 3}))
	op := &ConcatOp{OpName: "cat", Inputs: []string{"a", "b"}, Output: "out"}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("out")
	if m.Cols != 3 || m.Data[2] != 3 {
		t.Errorf("concat = %v", m.Data)
	}
}

// blocksOver is m as a block table with slots of the given widths, a
// block absent where present says so (nil: all present).
func blocksOver(m *tensor.Matrix, widths []int, present func(r, s int) bool) *tensor.Blocks {
	b := &tensor.Blocks{Rows: m.Rows, Cols: m.Cols, Stride: m.Rows, Slots: make([]tensor.BlockSlot, len(widths)), Handles: make([]uint32, len(widths)*m.Rows)}
	col := 0
	for s, w := range widths {
		b.Slots[s] = tensor.BlockSlot{Data: m.Data, Col: int32(col), Width: int32(w)}
		for r := 0; r < m.Rows; r++ {
			if present == nil || present(r, s) {
				b.Handles[s*m.Rows+r] = uint32(r*m.Cols+col) + 1
			}
		}
		col += w
	}
	return b
}

func TestInteraction(t *testing.T) {
	ws := NewWorkspace()
	// Three examples; features are slots 1 and 3 — columns [1,3) and [4,6)
	// of a 6-wide matrix. The last example's second feature is an empty
	// bag: no handle, and whatever sits in the matrix there is not read.
	emb := tensor.FromSlice(3, 6, []float32{
		9, 1, 0, 9, 0, 1,
		9, 2, 3, 9, 4, 5,
		9, 6, 7, 9, 8, 8,
	})
	ws.SetBlocks("emb", blocksOver(emb, []int{1, 2, 1, 2}, func(r, s int) bool { return r != 2 || s != 3 }))
	ws.SetBlob("bottom", tensor.FromSlice(3, 2, []float32{5, 6, 7, 8, 1, 2}))
	op := &Interaction{OpName: "int", Emb: "emb", FeatureSlots: []int{1, 3}, Passthrough: "bottom", Output: "top_in"}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("top_in")
	// bottom (2 cols) + 1 pairwise dot = 3 cols: 1·0+0·1 = 0, 2·4+3·5 = 23,
	// (6, 7)·(0, 0) = 0.
	if want := []float32{5, 6, 0, 7, 8, 23, 1, 2, 0}; m.Cols != 3 || !slices.Equal(m.Data, want) {
		t.Errorf("interaction out = %v, want %v", m.Data, want)
	}
	op.FeatureSlots = []int{1, 4}
	if err := op.Run(ws); err == nil {
		t.Error("a feature past the last slot should error")
	}
	op.FeatureSlots = []int{1, 2}
	if err := op.Run(ws); err == nil {
		t.Error("features of different widths should error")
	}
}

// TestEmbFCMatchesFusedFC: the projection over a block table is the fused
// FC over the table's dense form, bit for bit, whatever is absent.
func TestEmbFCMatchesFusedFC(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	randM := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64())
		}
		return m
	}
	w, bias := randM(40, 70), randM(1, 70).Data
	widths := []int{8, 8, 16, 8}
	blocks := blocksOver(randM(9, 40), widths, func(r, s int) bool { return (r+s)%3 != 0 })
	ws := NewWorkspace()
	ws.SetBlocks("emb", blocks)
	ws.SetBlob("dense", blocks.Dense())
	for _, op := range []Op{
		&EmbFC{OpName: "proj", W: w, B: bias, Input: "emb", Output: "got"},
		&FusedFC{OpName: "ref", W: w, B: bias, Input: "dense", Output: "want"},
	} {
		if err := op.Run(ws); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := ws.Blob("got")
	want, _ := ws.Blob("want")
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("element %d = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	if err := (&EmbFC{OpName: "proj", W: randM(39, 70), Input: "emb", Output: "got"}).Run(ws); err == nil {
		t.Error("a weight matrix of the wrong height should error")
	}
}

// TestFusedSLSPoolsColumnRanges: every entry's rows land in its column
// range of the fused matrix, an empty bag's columns are zero even in a
// dirty preallocated output, and a bad index fails the net.
func TestFusedSLSPoolsColumnRanges(t *testing.T) {
	t1 := embedding.NewDense(3, 1)
	copy(t1.Data, []float32{1, 2, 3})
	t2 := embedding.NewDense(2, 2)
	copy(t2.Data, []float32{10, 20, 30, 40})
	ws := NewWorkspace()
	ws.SetBags("b1", embedding.BagList{Lens: []int32{2, 0}, Indices: []int32{0, 2}})
	ws.SetBags("b2", embedding.BagList{Lens: []int32{0, 2}, Indices: []int32{1, 1}})
	ws.SetBlob("emb", tensor.FromSlice(2, 3, []float32{9, 9, 9, 9, 9, 9}))
	op := &FusedSLS{OpName: "fused", Output: "emb", Cols: 3, Entries: []FusedSLSEntry{
		{Table: t1, InputBags: "b1", ColOffset: 0}, {Table: t2, InputBags: "b2", ColOffset: 1},
	}}
	net := &Net{NetName: "n", Ops: []Op{op}}
	if err := net.Run(ws, nil); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("emb")
	if want := []float32{4, 0, 0, 0, 60, 80}; !slices.Equal(m.Data, want) {
		t.Errorf("fused = %v, want %v", m.Data, want)
	}
	// What the layers above read is a block table over the matrix: a
	// handle per non-empty bag, slot-major, none for an empty one.
	b, err := ws.Blocks("emb")
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 0, 0, 5}; !slices.Equal(b.Handles, want) || !slices.Equal(b.Dense().Data, m.Data) {
		t.Errorf("published handles %v (want %v) standing for %v", b.Handles, want, b.Dense().Data)
	}
	ws.SetBags("b2", embedding.BagList{Lens: []int32{0, 1}, Indices: []int32{2}})
	if err := net.Run(ws, nil); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range index: err = %v", err)
	}
}

// TestFusedSLSReusesItsBlockTable: across a Recycle a FusedSLS publishes
// its block table in the storage of the run before, with no handle left
// over for a bag that is empty now, and pools without allocating; Recycle
// leaves the kept slots and entries pinning nothing.
func TestFusedSLSReusesItsBlockTable(t *testing.T) {
	t1 := embedding.NewDense(3, 2)
	copy(t1.Data, []float32{1, 2, 3, 4, 5, 6})
	op := &FusedSLS{OpName: "sls", Output: "emb", Cols: 2, Entries: []FusedSLSEntry{{Table: t1, InputBags: "b"}}}
	ws := NewWorkspace()
	run := func(lens, idx []int32) *tensor.Blocks {
		t.Helper()
		ws.SetBags("b", embedding.BagList{Lens: lens, Indices: idx})
		ws.SetBlob("emb", ws.AllocBlobZero("emb", len(lens), 2))
		if err := op.Run(ws); err != nil {
			t.Fatal(err)
		}
		b, err := ws.Blocks("emb")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := run([]int32{1, 1}, []int32{0, 2})
	handles := &first.Handles[0]
	if want := []uint32{1, 3}; !slices.Equal(first.Handles, want) {
		t.Fatalf("first run's handles %v, want %v", first.Handles, want)
	}
	ws.Recycle()
	b := ws.sls["emb"]
	if b.pool[:cap(b.pool)][0].Table != nil || b.blocks.Slots[0].Data != nil {
		t.Error("Recycle left the kept entries or slots pointing at the run's buffers")
	}
	second := run([]int32{0, 1}, []int32{1})
	if &second.Handles[0] != handles {
		t.Error("the second run did not reuse the first run's handles")
	}
	if want := []uint32{0, 3}; !slices.Equal(second.Handles, want) || !slices.Equal(second.Dense().Data, []float32{0, 0, 3, 4}) {
		t.Errorf("second run's handles %v (want %v) standing for %v", second.Handles, want, second.Dense().Data)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = op.Run(ws) }); allocs != 0 {
		t.Errorf("a run over kept scratch allocates %v times, want 0", allocs)
	}
}

// TestAllocEmbClearsRecycledStorage runs the in-line SLS (AllocEmb then
// FusedSLS) twice through one workspace across a Recycle: the second run
// reuses the first's dirty matrix, and the column no entry writes must
// read zero again.
func TestAllocEmbClearsRecycledStorage(t *testing.T) {
	t1 := embedding.NewDense(3, 1)
	copy(t1.Data, []float32{1, 2, 3})
	t2 := embedding.NewDense(2, 1)
	copy(t2.Data, []float32{10, 20})
	net := &Net{NetName: "n", Ops: []Op{
		&AllocEmb{OpName: "alloc", RowsFrom: "b1", Cols: 3, Output: "emb"},
		&FusedSLS{OpName: "sls", Output: "emb", Cols: 3, Entries: []FusedSLSEntry{
			{Table: t1, InputBags: "b1", ColOffset: 0}, {Table: t2, InputBags: "b2", ColOffset: 2},
		}},
	}}
	ws := NewWorkspace()
	var first *tensor.Matrix
	for run := 0; run < 2; run++ {
		ws.SetBags("b1", embedding.BagList{Lens: []int32{2, 1}, Indices: []int32{0, 2, 1}})
		ws.SetBags("b2", embedding.BagList{Lens: []int32{1, 0}, Indices: []int32{1}})
		if err := net.Run(ws, nil); err != nil {
			t.Fatal(err)
		}
		m, _ := ws.Blob("emb")
		if want := []float32{4, 0, 20, 2, 0, 0}; !slices.Equal(m.Data, want) {
			t.Fatalf("run %d: emb = %v, want %v", run, m.Data, want)
		}
		if run == 0 {
			first = m
			for i := range m.Data {
				m.Data[i] = 7 // what a later layer could leave behind
			}
		} else if &m.Data[0] != &first.Data[0] {
			t.Error("the second run did not reuse the first run's storage")
		}
		ws.Recycle()
	}
	if err := net.Run(ws, nil); err == nil || !strings.Contains(err.Error(), `"b1"`) {
		t.Errorf("AllocEmb without its bags: err = %v", err)
	}
}

func TestSplitBlob(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("x", tensor.FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6}))
	op := &SplitBlob{OpName: "split", Input: "x", FromCol: 1, ToCol: 3, Output: "y"}
	if err := op.Run(ws); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("y")
	if m.Cols != 2 || m.At(0, 0) != 2 || m.At(1, 1) != 6 {
		t.Errorf("split = %v", m.Data)
	}
	bad := &SplitBlob{OpName: "split", Input: "x", FromCol: 2, ToCol: 1, Output: "y"}
	if err := bad.Run(ws); err == nil {
		t.Error("bad range should error")
	}
}

// recordingObserver captures scheduler callbacks for assertions.
type recordingObserver struct {
	ops      []string
	netName  string
	total    time.Duration
	opTime   time.Duration
	finished bool
}

func (r *recordingObserver) OpExecuted(net string, op Op, start time.Time, dur time.Duration) {
	r.ops = append(r.ops, op.Name())
}

func (r *recordingObserver) NetFinished(net string, start time.Time, total, opTime time.Duration) {
	r.netName, r.total, r.opTime, r.finished = net, total, opTime, true
}

func TestNetRunSequentialWithObserver(t *testing.T) {
	ws := NewWorkspace()
	ws.SetBlob("in", tensor.FromSlice(1, 2, []float32{1, 2}))
	net := &Net{NetName: "n", Ops: []Op{
		&FC{OpName: "fc1", W: tensor.FromSlice(2, 2, []float32{1, 0, 0, 1}), Input: "in", Output: "h"},
		&Activation{OpName: "relu", Func: ActReLU, Blob: "h"},
	}}
	obs := &recordingObserver{}
	if err := net.Run(ws, obs); err != nil {
		t.Fatal(err)
	}
	if len(obs.ops) != 2 || obs.ops[0] != "fc1" || obs.ops[1] != "relu" {
		t.Errorf("observed ops = %v", obs.ops)
	}
	if !obs.finished || obs.netName != "n" || obs.total < obs.opTime {
		t.Errorf("NetFinished wrong: %+v", obs)
	}
}

func TestNetRunStopsOnError(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{
		&FC{OpName: "fc1", W: tensor.New(2, 2), Input: "missing", Output: "h"},
		&Fill{OpName: "fill", Rows: 1, Cols: 1, Output: "should-not-run"},
	}}
	if err := net.Run(ws, nil); err == nil {
		t.Fatal("expected error")
	}
	if ws.HasBlob("should-not-run") {
		t.Error("ops after a failure must not run")
	}
}

func TestOpKindString(t *testing.T) {
	if KindDense.String() != "Dense" || KindRPC.String() != "RPC" {
		t.Error("kind names wrong")
	}
	if OpKind(99).String() != "Unknown" {
		t.Error("unknown kind should render Unknown")
	}
}

// panicOp fails by panicking, as a corrupted-index or storage-fault path
// would.
type panicOp struct{}

func (p *panicOp) Name() string { return "boom" }
func (p *panicOp) Kind() OpKind { return KindSparse }
func (p *panicOp) Run(ws *Workspace) error {
	panic("storage fault")
}

func TestNetRunConvertsPanicsToErrors(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{&panicOp{}}}
	err := net.Run(ws, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "storage fault") {
		t.Fatalf("panic should surface as an error naming the op: %v", err)
	}
}

// TestFusedFCMatchesUnfused checks the fused op against the FC →
// Activation pair bitwise, with and without bias, for both activations
// and ActNone.
func TestFusedFCMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := tensor.New(12, 9)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64())
	}
	bias := make([]float32, 9)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	in := tensor.New(21, 12)
	for i := range in.Data {
		in.Data[i] = float32(rng.NormFloat64())
	}

	for _, tc := range []struct {
		name string
		act  ActivationFunc
		b    []float32
	}{
		{"relu+bias", ActReLU, bias},
		{"sigmoid+bias", ActSigmoid, bias},
		{"none+bias", ActNone, bias},
		{"relu-nobias", ActReLU, nil},
	} {
		wsA := NewWorkspace()
		wsA.SetBlob("in", in.Clone())
		fc := &FC{OpName: "fc", W: w, B: tc.b, Input: "in", Output: "out"}
		if err := fc.Run(wsA); err != nil {
			t.Fatal(err)
		}
		if tc.act != ActNone {
			act := &Activation{OpName: "act", Func: tc.act, Blob: "out"}
			if err := act.Run(wsA); err != nil {
				t.Fatal(err)
			}
		}
		want, _ := wsA.Blob("out")

		wsB := NewWorkspace()
		wsB.SetBlob("in", in.Clone())
		fused := &FusedFC{OpName: "ffc", W: w, B: tc.b, Act: tc.act, Input: "in", Output: "out"}
		if err := fused.Run(wsB); err != nil {
			t.Fatal(err)
		}
		got, _ := wsB.Blob("out")
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: element %d differs: %v vs %v", tc.name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestFusedFCValidates(t *testing.T) {
	w := tensor.New(4, 3)
	ws := NewWorkspace()
	ws.SetBlob("in", tensor.New(2, 5)) // cols mismatch
	if err := (&FusedFC{OpName: "f", W: w, Input: "in", Output: "o"}).Run(ws); err == nil {
		t.Error("input/weight mismatch must error")
	}
	ws.SetBlob("in", tensor.New(2, 4))
	if err := (&FusedFC{OpName: "f", W: w, B: make([]float32, 7), Input: "in", Output: "o"}).Run(ws); err == nil {
		t.Error("bias length mismatch must error")
	}
	if err := (&FusedFC{OpName: "f", W: w, Act: ActivationFunc(99), Input: "in", Output: "o"}).Run(ws); err == nil {
		t.Error("unknown activation must error")
	}
	if err := (&FusedFC{OpName: "f", W: w, Input: "in", Output: "missing-in"}).Run(NewWorkspace()); err == nil {
		t.Error("missing input must error")
	}
}
