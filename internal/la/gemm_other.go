//go:build !amd64

package la

// gemmAVX is false off amd64: Gemm runs its Go tile only.
var gemmAVX = false

// gemm4x8 stands in for the amd64 assembly tile; it is never called.
func gemm4x8(kc int, a *float64, lda int, p *float64, c *float64, ldc int) {
	panic("la: AVX tile called off amd64")
}
