//go:build !amd64

package la

// gemmLevel is the Go tile off amd64: Gemm runs no assembly.
var gemmLevel = gemmGo

// gemm4x8 stands in for the amd64 assembly tile; it is never called.
func gemm4x8(kc int, a *float64, lda int, p *float64, c *float64, ldc int) {
	panic("la: AVX tile called off amd64")
}

// gemm4x16 stands in for the amd64 assembly tile; it is never called.
func gemm4x16(kc int, a *float64, lda int, p *float64, c *float64, ldc int) {
	panic("la: AVX-512 tile called off amd64")
}
