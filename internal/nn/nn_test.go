package nn

import (
	"errors"
	"fmt"
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

func TestFutureResolution(t *testing.T) {
	ws := NewWorkspace()
	f := NewFuture()
	ws.RegisterFuture("out", f)
	if ws.Pending() != 1 {
		t.Fatalf("Pending = %d", ws.Pending())
	}
	want := tensor.New(2, 2)
	go f.Complete(want, nil)
	got, err := ws.WaitBlob("out")
	if err != nil || got != want {
		t.Fatalf("WaitBlob = %v, %v", got, err)
	}
	if ws.Pending() != 0 {
		t.Errorf("future should be consumed")
	}
	// Resolved blob is now a plain blob.
	if _, err := ws.Blob("out"); err != nil {
		t.Errorf("resolved blob should be readable: %v", err)
	}
}

func TestFutureError(t *testing.T) {
	ws := NewWorkspace()
	f := NewFuture()
	ws.RegisterFuture("out", f)
	f.Complete(nil, errors.New("boom"))
	if _, err := ws.WaitBlob("out"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error should propagate, got %v", err)
	}
}

func TestDuplicateFuturePanics(t *testing.T) {
	ws := NewWorkspace()
	ws.RegisterFuture("out", NewFuture())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ws.RegisterFuture("out", NewFuture())
}

func TestWaitAllCollectsErrors(t *testing.T) {
	ws := NewWorkspace()
	f1, f2 := NewFuture(), NewFuture()
	ws.RegisterFuture("a", f1)
	ws.RegisterFuture("b", f2)
	f1.Complete(tensor.New(1, 1), nil)
	f2.Complete(nil, errors.New("late failure"))
	if err := ws.WaitAll(); err == nil {
		t.Error("WaitAll should surface the failure")
	}
	if ws.Pending() != 0 {
		t.Error("WaitAll should drain all futures")
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

// asyncOp is a test double for the RPC op: it launches a goroutine and
// registers a future.
type asyncOp struct {
	name  string
	out   string
	delay time.Duration
	fail  bool
}

func (a *asyncOp) Name() string { return a.name }
func (a *asyncOp) Kind() OpKind { return KindRPC }
func (a *asyncOp) Run(ws *Workspace) error {
	f := NewFuture()
	ws.RegisterFuture(a.out, f)
	go func() {
		time.Sleep(a.delay)
		if a.fail {
			f.Complete(nil, fmt.Errorf("%s: remote failure", a.name))
			return
		}
		f.Complete(tensor.FromSlice(1, 1, []float32{42}), nil)
	}()
	return nil
}

func TestNetRunAsyncOpResolvedByConsumer(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{
		&asyncOp{name: "rpc1", out: "remote", delay: time.Millisecond},
		&FC{OpName: "fc", W: tensor.FromSlice(1, 1, []float32{2}), Input: "remote", Output: "out"},
	}}
	if err := net.Run(ws, nil); err != nil {
		t.Fatal(err)
	}
	m, _ := ws.Blob("out")
	if m.Data[0] != 84 {
		t.Errorf("async consumer got %v, want 84", m.Data[0])
	}
}

func TestNetRunAsyncFailurePropagates(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{
		&asyncOp{name: "rpc1", out: "remote", fail: true},
	}}
	if err := net.Run(ws, nil); err == nil || !strings.Contains(err.Error(), "remote failure") {
		t.Errorf("async failure should propagate: %v", err)
	}
	if ws.Pending() != 0 {
		t.Error("futures must be drained after failure")
	}
}

func TestNetRunDrainsAsyncOnSyncError(t *testing.T) {
	ws := NewWorkspace()
	net := &Net{NetName: "n", Ops: []Op{
		&asyncOp{name: "rpc1", out: "remote", delay: 5 * time.Millisecond},
		&FC{OpName: "fc", W: tensor.New(2, 2), Input: "missing", Output: "out"},
	}}
	if err := net.Run(ws, nil); err == nil {
		t.Fatal("expected error")
	}
	if ws.Pending() != 0 {
		t.Error("async futures must be drained on sync failure")
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
