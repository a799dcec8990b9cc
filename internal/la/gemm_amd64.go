package la

// gemmAVX selects Gemm's AVX tile; it holds what the CPU reports and is
// otherwise changed only by tests, to run the Go tile on the same host.
var gemmAVX = cpuHasAVX()

// gemm4x8 adds A[0:4][0:kc] * P to the 4 x 8 tile of C at c, where the
// rows of A start lda elements apart at a, the rows of C ldc apart at c,
// and P is kc rows of 8 packed at p (gemm_amd64.s). It reads and writes
// through raw pointers: the caller indexes the last element of each.
//
//go:noescape
func gemm4x8(kc int, a *float64, lda int, p *float64, c *float64, ldc int)

// cpuHasAVX reports whether the CPU and the OS support AVX.
func cpuHasAVX() bool
