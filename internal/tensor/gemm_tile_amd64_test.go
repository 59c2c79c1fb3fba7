//go:build amd64

package tensor

import (
	"math/rand"
	"testing"
)

// TestRowShape pins which kernel each kind of a-row group gets: the tile
// for dense and randomly half-zero (ReLU) rows, the row kernel where most
// 16-value blocks are empty in every row, or everything is.
func TestRowShape(t *testing.T) {
	const k = 1024
	rng := rand.New(rand.NewSource(3))
	fill := func(keep func(p int) bool) []float32 {
		rows := make([]float32, 4*k)
		for i := range rows {
			if keep(i) {
				rows[i] = float32(rng.NormFloat64()) + 3
			}
		}
		return rows
	}
	blocks := make([]bool, 4*k/16)
	for i := range blocks {
		blocks[i] = rng.Intn(11) == 0
	}
	for _, tc := range []struct {
		name string
		rows []float32
		want bool
	}{
		{"dense", fill(func(int) bool { return true }), false},
		{"relu-random", fill(func(int) bool { return rng.Intn(2) == 0 }), false},
		{"blocks-10%-empty", fill(func(p int) bool { return p/16%10 != 0 }), false},
		{"blocks-91%-empty", fill(func(p int) bool { return blocks[p/16] }), true},
		{"all-zero", make([]float32, 4*k), true},
	} {
		if got := rowShape(tc.rows, k); got != tc.want {
			t.Errorf("%s: rowShape = %v, want %v", tc.name, got, tc.want)
		}
	}
	if rowShape(fill(func(int) bool { return true })[:4*5], 5) {
		t.Error("dense k=5: rowShape = true")
	}
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
