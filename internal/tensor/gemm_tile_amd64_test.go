//go:build amd64

package tensor

import (
	"math/rand"
	"testing"
)

// TestSparseGroup pins which kernel each kind of four-row group gets,
// from an exact count of its blocks: the tile for a dense a (one slot,
// every handle set) and for slots mostly present in every row, the row
// kernel where a slot's blocks are mostly alone in it, or there are none.
func TestSparseGroup(t *testing.T) {
	const slots, width = 64, 16
	rng := rand.New(rand.NewSource(3))
	table := func(keep func(r, s int) bool) *Blocks {
		a := &Blocks{Rows: 4, Cols: slots * width, Stride: 4, Handles: make([]uint32, 4*slots), Slots: make([]BlockSlot, slots)}
		data := make([]float32, 4*slots*width)
		for s := range a.Slots {
			a.Slots[s] = BlockSlot{Data: data, Col: int32(s * width), Width: width}
			for r := 0; r < 4; r++ {
				if keep(r, s) {
					a.Handles[s*4+r] = uint32((s*4+r)*width) + 1
				}
			}
		}
		return a
	}
	dense := denseBlocks(New(4, 1024), make([]BlockSlot, 1), make([]uint32, 4))
	for _, tc := range []struct {
		name string
		a    *Blocks
		want bool
	}{
		{"dense", &dense, false},
		{"all-present", table(func(int, int) bool { return true }), false},
		{"28%-random", table(func(int, int) bool { return rng.Intn(100) < 28 }), false},
		{"per-request", table(func(_, s int) bool { return s%3 == 0 }), false},
		{"9%-random", table(func(int, int) bool { return rng.Intn(11) == 0 }), true},
		{"one-row", table(func(r, _ int) bool { return r == 2 }), true},
		{"all-absent", table(func(int, int) bool { return false }), true},
	} {
		if got := tc.a.sparseGroup(0, 4); got != tc.want {
			t.Errorf("%s: sparseGroup = %v, want %v", tc.name, got, tc.want)
		}
	}
	bad := table(func(int, int) bool { return true })
	bad.Handles[5] = uint32(len(bad.Slots[1].Data)) - width + 2
	defer func() {
		if recover() == nil {
			t.Error("a handle past its slot's storage was not refused")
		}
	}()
	bad.sparseGroup(0, 4)
}

// TestHostLanes checks the probe returns a width the kernels exist for
// and that init recorded it.
func TestHostLanes(t *testing.T) {
	w := hostLanes()
	if w != 0 && w != 8 && w != 16 {
		t.Fatalf("hostLanes() = %d", w)
	}
	if gemmLanes != w {
		t.Errorf("gemmLanes = %d, probe says %d", gemmLanes, w)
	}
	t.Logf("register tile: %d lanes", w)
}
