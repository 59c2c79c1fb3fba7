//go:build !amd64

package tensor

// hostLanes reports no assembly tile: on this architecture the vector
// family's GEMM is the generic Go kernel.
func hostLanes() int { return 0 }

// gemmRowsTile is never reached when hostLanes is 0.
func gemmRowsTile(dst *Matrix, a *Blocks, b *Matrix, lanes int, bias []float32, relu bool) {
	panic("tensor: no register tile on this architecture")
}
