package core

import (
	"repro/internal/nn"
)

// buildSchedule compiles the program's dense-blob liveness into an
// nn.BlobSchedule so batch execution draws output blobs from a pooled
// arena instead of allocating. It walks the op sequence runBatch
// assembles (preOps, then the in-line SLS or the wait on the request's
// sparse fetch, then postOps, per net in order), records for every
// statically-shaped dense blob the op index that defines it and the last
// index that reads it, and lets the interval packer overlap dead blobs.
//
// A net's pooled embeddings are a block table, not a blob: under a
// distributed plan they live in the sparse responses and never enter the
// schedule; under a singular one the table stands over the in-line SLS's
// matrix, which is scheduled and must stay alive until the table's last
// reader — the table carries the matrix's name, so a use of one is a use
// of the other. Any op whose output cannot be scheduled falls back to a
// fresh allocation at run time.
func buildSchedule(prog *engineProgram) (*nn.BlobSchedule, error) {
	type binfo struct {
		cols, def, last int
	}
	infos := make(map[string]*binfo)
	alias := make(map[string]string)
	var order []string

	resolve := func(name string) string {
		if src, ok := alias[name]; ok {
			return src
		}
		return name
	}
	idx := 0
	define := func(name string, cols int) {
		if cols <= 0 {
			return
		}
		if _, dup := infos[name]; dup {
			return
		}
		infos[name] = &binfo{cols: cols, def: idx, last: idx}
		order = append(order, name)
	}
	use := func(name string) {
		if b, ok := infos[resolve(name)]; ok {
			b.last = idx
		}
	}
	colsOf := func(name string) int {
		if b, ok := infos[resolve(name)]; ok {
			return b.cols
		}
		return -1
	}

	// The per-net dense inputs are copied into the workspace before any
	// op runs: alive from index -1.
	for _, np := range prog.nets {
		name := "dense_" + np.spec.Name
		infos[name] = &binfo{cols: np.spec.DenseDim, def: -1, last: -1}
		order = append(order, name)
	}

	scan := func(op nn.Op) {
		switch o := op.(type) {
		case *nn.ScaleClip:
			use(o.Blob)
		case *nn.Activation:
			use(o.Blob)
		case *nn.FC:
			use(o.Input)
			define(o.Output, o.W.Cols)
		case *nn.FusedFC:
			use(o.Input)
			define(o.Output, o.W.Cols)
		case *nn.EmbFC:
			use(o.Input)
			define(o.Output, o.W.Cols)
		case *nn.ConcatOp:
			cols := 0
			for _, in := range o.Inputs {
				use(in)
				if c := colsOf(in); c < 0 || cols < 0 {
					cols = -1
				} else {
					cols += c
				}
			}
			if cols > 0 {
				define(o.Output, cols)
			}
		case *nn.SplitBlob:
			use(o.Input)
			define(o.Output, o.ToCol-o.FromCol)
		case *nn.AllocEmb:
			define(o.Output, o.Cols)
		case *nn.FusedSLS:
			use(o.Output)
		case *nn.Interaction:
			use(o.Emb)
			use(o.Passthrough)
			if pc := colsOf(o.Passthrough); pc >= 0 {
				f := len(o.FeatureSlots)
				define(o.Output, pc+f*(f-1)/2)
			}
		case *renameOp:
			// The alias shares the source's storage: future reads of the
			// alias must keep the source alive.
			use(o.from)
			alias[o.to] = resolve(o.from)
		}
		idx++
	}

	for _, np := range prog.nets {
		for _, op := range np.preOps {
			scan(op)
		}
		if np.slsOp != nil {
			scan(np.slsOp)
		} else {
			// The sparse stage — the wait op, behind the batch's own RPC ops
			// under PaperSchedule — installs a block table the schedule
			// ignores; one index keeps pre- and post-op intervals apart.
			idx++
		}
		for _, op := range np.postOps {
			scan(op)
		}
	}

	// The final net's output is read after the run (score extraction):
	// pin it past the last op so nothing overlaps it.
	if n := len(prog.nets); n > 0 {
		if b, ok := infos[resolve(prog.nets[n-1].outBlob)]; ok {
			b.last = idx
		}
	}

	specs := make([]nn.BlobSpec, 0, len(order))
	for _, name := range order {
		b := infos[name]
		specs = append(specs, nn.BlobSpec{Name: name, Cols: b.cols, Def: b.def, LastUse: b.last})
	}
	return nn.NewBlobSchedule(specs)
}
