package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// FC is a fully-connected layer: Output = Input·W + B. The dense stacks of
// the recommendation models (bottom MLP over dense features, top MLP over
// interactions) are chains of FC + activation operators, and per Fig. 4
// they dominate per-request compute.
type FC struct {
	OpName        string
	W             *tensor.Matrix // In×Out
	B             []float32      // len Out
	Input, Output string
}

// Name implements Op.
func (o *FC) Name() string { return o.OpName }

// Kind implements Op.
func (o *FC) Kind() OpKind { return KindDense }

// Run implements Op.
func (o *FC) Run(ws *Workspace) error {
	in, err := ws.WaitBlob(o.Input)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	if in.Cols != o.W.Rows {
		return fmt.Errorf("%s: input cols %d != weight rows %d", o.OpName, in.Cols, o.W.Rows)
	}
	out := ws.AllocBlob(o.Output, in.Rows, o.W.Cols)
	tensor.MatMul(out, in, o.W)
	if o.B != nil {
		tensor.AddBiasRows(out, o.B)
	}
	ws.SetBlob(o.Output, out)
	return nil
}

// ActivationFunc selects the nonlinearity applied by an Activation op or
// fused into a FusedFC.
type ActivationFunc int

// Supported activations. ActNone (the zero value) is only meaningful on
// FusedFC, where it selects the plain affine layer.
const (
	ActNone ActivationFunc = iota
	ActReLU
	ActSigmoid
)

// valid reports whether f names a known activation (ActNone included).
func (f ActivationFunc) valid() bool { return f >= ActNone && f <= ActSigmoid }

// applyAct runs f elementwise in place; ActNone is a no-op.
func applyAct(f ActivationFunc, xs []float32) error {
	switch f {
	case ActNone:
	case ActReLU:
		tensor.ReLUSlice(xs)
	case ActSigmoid:
		tensor.SigmoidSlice(xs)
	default:
		return fmt.Errorf("unknown activation %d", f)
	}
	return nil
}

// FusedFC is a fully-connected layer with the bias addition and ReLU
// fused into the GEMM's tile store: Output = act(Input·W + B), with no
// extra pass over the output and no intermediate blob. Sigmoid — an exp
// per element, on the one-column scoring layers — stays a pass over the
// finished output. Results are bitwise identical to the FC → Activation
// pair it replaces. Output storage draws from the workspace arena when
// scheduled.
type FusedFC struct {
	OpName        string
	W             *tensor.Matrix // In×Out
	B             []float32      // len Out, nil for no bias
	Act           ActivationFunc // ActNone for the plain affine layer
	Input, Output string
}

// Name implements Op.
func (o *FusedFC) Name() string { return o.OpName }

// Kind implements Op.
func (o *FusedFC) Kind() OpKind { return KindDense }

// Run implements Op.
func (o *FusedFC) Run(ws *Workspace) error {
	in, err := ws.WaitBlob(o.Input)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	if in.Cols != o.W.Rows {
		return fmt.Errorf("%s: input cols %d != weight rows %d", o.OpName, in.Cols, o.W.Rows)
	}
	if o.B != nil && len(o.B) != o.W.Cols {
		return fmt.Errorf("%s: bias length %d != output cols %d", o.OpName, len(o.B), o.W.Cols)
	}
	if !o.Act.valid() {
		return fmt.Errorf("%s: unknown activation %d", o.OpName, o.Act)
	}
	out := ws.AllocBlob(o.Output, in.Rows, o.W.Cols)
	tensor.MatMulEpilogue(out, in, o.W, o.B, o.Act == ActReLU)
	if o.Act == ActSigmoid {
		tensor.SigmoidSlice(out.Data)
	}
	ws.SetBlob(o.Output, out)
	return nil
}

// EmbFC is the fully-connected layer over a net's pooled embeddings (the
// models' fc_proj): Output = Input·W + B, where Input is a block table —
// one slot per embedding table, a handle per bag — and an empty bag's
// block is neither stored nor multiplied. Results are bitwise identical to
// a FusedFC over the table's dense form.
type EmbFC struct {
	OpName        string
	W             *tensor.Matrix // ΣDim×Out
	B             []float32      // len Out, nil for no bias
	Input, Output string
}

// Name implements Op.
func (o *EmbFC) Name() string { return o.OpName }

// Kind implements Op.
func (o *EmbFC) Kind() OpKind { return KindDense }

// Run implements Op.
func (o *EmbFC) Run(ws *Workspace) error {
	in, err := ws.Blocks(o.Input)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	if in.Cols != o.W.Rows {
		return fmt.Errorf("%s: input cols %d != weight rows %d", o.OpName, in.Cols, o.W.Rows)
	}
	if o.B != nil && len(o.B) != o.W.Cols {
		return fmt.Errorf("%s: bias length %d != output cols %d", o.OpName, len(o.B), o.W.Cols)
	}
	out := ws.AllocBlob(o.Output, in.Rows, o.W.Cols)
	tensor.MatMulBlocks(out, in, o.W, o.B, false)
	ws.SetBlob(o.Output, out)
	return nil
}

// Activation applies a nonlinearity in place on a blob.
type Activation struct {
	OpName string
	Func   ActivationFunc
	Blob   string
}

// Name implements Op.
func (o *Activation) Name() string { return o.OpName }

// Kind implements Op.
func (o *Activation) Kind() OpKind { return KindActivation }

// Run implements Op.
func (o *Activation) Run(ws *Workspace) error {
	m, err := ws.WaitBlob(o.Blob)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	if o.Func == ActNone {
		// A standalone activation op exists to activate; ActNone here is
		// a wiring bug (likely an unset field), not a request for a no-op.
		return fmt.Errorf("%s: unknown activation %d", o.OpName, o.Func)
	}
	if err := applyAct(o.Func, m.Data); err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	return nil
}

// ScaleClip scales then clamps a blob in place, modeling the
// preprocessing operators in Fig. 4's "Scale/Clip" group.
type ScaleClip struct {
	OpName string
	Scale  float32
	Lo, Hi float32
	Blob   string
}

// Name implements Op.
func (o *ScaleClip) Name() string { return o.OpName }

// Kind implements Op.
func (o *ScaleClip) Kind() OpKind { return KindScaleClip }

// Run implements Op.
func (o *ScaleClip) Run(ws *Workspace) error {
	m, err := ws.WaitBlob(o.Blob)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	tensor.Scale(m, o.Scale)
	tensor.Clip(m, o.Lo, o.Hi)
	return nil
}

// hash32 is a Murmur-style finalizer: cheap, deterministic, well mixed.
func hash32(x int32) int32 {
	h := uint32(x)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return int32(h & 0x7fffffff)
}

// Fill creates a constant-valued blob, mirroring Caffe2's *Fill operators
// (Fig. 4's "Fill" group) used to materialize defaults for absent features.
type Fill struct {
	OpName     string
	Rows, Cols int
	Value      float32
	Output     string
}

// Name implements Op.
func (o *Fill) Name() string { return o.OpName }

// Kind implements Op.
func (o *Fill) Kind() OpKind { return KindFill }

// Run implements Op.
func (o *Fill) Run(ws *Workspace) error {
	m := tensor.New(o.Rows, o.Cols)
	if o.Value != 0 {
		for i := range m.Data {
			m.Data[i] = o.Value
		}
	}
	ws.SetBlob(o.Output, m)
	return nil
}

// ConcatOp concatenates blobs horizontally into Output (Fig. 4's "Memory
// Transformations" group).
type ConcatOp struct {
	OpName string
	Inputs []string
	Output string
}

// Name implements Op.
func (o *ConcatOp) Name() string { return o.OpName }

// Kind implements Op.
func (o *ConcatOp) Kind() OpKind { return KindMemoryTransform }

// Run implements Op.
func (o *ConcatOp) Run(ws *Workspace) error {
	ms := make([]*tensor.Matrix, len(o.Inputs))
	rows, cols := 0, 0
	for i, name := range o.Inputs {
		m, err := ws.WaitBlob(name)
		if err != nil {
			return fmt.Errorf("%s: %w", o.OpName, err)
		}
		ms[i] = m
		rows = m.Rows
		cols += m.Cols
	}
	if len(ms) == 0 {
		ws.SetBlob(o.Output, tensor.New(0, 0))
		return nil
	}
	out := ws.AllocBlob(o.Output, rows, cols)
	tensor.ConcatInto(out, ms...)
	ws.SetBlob(o.Output, out)
	return nil
}

// Interaction computes the DLRM pairwise-dot feature interaction over a
// set of equal-width features and concatenates the result with the
// Passthrough blob (the bottom-MLP output), producing the top-MLP input.
// The features are slots of the net's pooled embeddings — feature i is
// slot FeatureSlots[i] of Emb — read in place through their handles, an
// empty bag's as a block of zeros: no per-table pooled blob exists.
type Interaction struct {
	OpName       string
	Emb          string
	FeatureSlots []int
	Passthrough  string
	Output       string
}

// Name implements Op.
func (o *Interaction) Name() string { return o.OpName }

// Kind implements Op.
func (o *Interaction) Kind() OpKind { return KindFeatureTransform }

// Run implements Op.
func (o *Interaction) Run(ws *Workspace) error {
	emb, err := ws.Blocks(o.Emb)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	pass, err := ws.WaitBlob(o.Passthrough)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	if emb.Rows != pass.Rows {
		return fmt.Errorf("%s: %d embedding rows for %d passthrough rows", o.OpName, emb.Rows, pass.Rows)
	}
	for _, s := range o.FeatureSlots {
		if s < 0 || s >= len(emb.Slots) {
			return fmt.Errorf("%s: feature slot %d of %d", o.OpName, s, len(emb.Slots))
		}
		if w, w0 := emb.Slots[s].Width, emb.Slots[o.FeatureSlots[0]].Width; w != w0 {
			return fmt.Errorf("%s: feature slot %d is %d wide, slot %d is %d", o.OpName, s, w, o.FeatureSlots[0], w0)
		}
	}
	// Write the passthrough columns and the pairwise dots straight into
	// the output (arena-drawn when scheduled) — no intermediate dots or
	// concat blob. The dots share tensor.PairwiseDotVecs with PairwiseDot,
	// so results are bitwise identical to the unfused Dot+Concat form.
	f := len(o.FeatureSlots)
	vecs := make([][]float32, f)
	out := ws.AllocBlob(o.Output, pass.Rows, pass.Cols+f*(f-1)/2)
	for r := 0; r < pass.Rows; r++ {
		row := out.Row(r)
		copy(row[:pass.Cols], pass.Row(r))
		for i, s := range o.FeatureSlots {
			vecs[i] = emb.Block(r, s)
		}
		tensor.PairwiseDotVecs(row[pass.Cols:], vecs)
	}
	ws.SetBlob(o.Output, out)
	return nil
}

// SplitBlob slices a blob's columns into Output, modeling tensor reshape
// and split traffic ("Memory Transformations").
type SplitBlob struct {
	OpName         string
	Input          string
	FromCol, ToCol int
	Output         string
}

// Name implements Op.
func (o *SplitBlob) Name() string { return o.OpName }

// Kind implements Op.
func (o *SplitBlob) Kind() OpKind { return KindMemoryTransform }

// Run implements Op.
func (o *SplitBlob) Run(ws *Workspace) error {
	in, err := ws.WaitBlob(o.Input)
	if err != nil {
		return fmt.Errorf("%s: %w", o.OpName, err)
	}
	if o.FromCol < 0 || o.ToCol > in.Cols || o.FromCol >= o.ToCol {
		return fmt.Errorf("%s: bad column range [%d, %d) for %d cols", o.OpName, o.FromCol, o.ToCol, in.Cols)
	}
	out := ws.AllocBlob(o.Output, in.Rows, o.ToCol-o.FromCol)
	for r := 0; r < in.Rows; r++ {
		copy(out.Row(r), in.Row(r)[o.FromCol:o.ToCol])
	}
	ws.SetBlob(o.Output, out)
	return nil
}
