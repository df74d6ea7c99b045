//go:build !amd64

package tensor

// simdOK is false off amd64: the Go kernels do all the work.
const simdOK = false

func simdPanel(w int, c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, m, k int, load bool) {
	panic("tensor: no SIMD kernels on this architecture")
}
