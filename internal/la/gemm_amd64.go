package la

// gemmLevel is the widest tile Gemm runs. It holds what the CPU and the
// OS report and is otherwise lowered only by tests, to run the narrower
// kernels on the same host.
var gemmLevel = hostKernel()

func hostKernel() gemmKernel {
	switch {
	case cpuHasAVX() && cpuHasAVX512():
		return gemmAVX512
	case cpuHasAVX():
		return gemmAVX
	}
	return gemmGo
}

// gemm4x8 adds A[0:4][0:kc] * P to the 4 x 8 tile of C at c, where the
// rows of A start lda elements apart at a, the rows of C ldc apart at c,
// and P is kc rows of 8 packed at p (gemm_amd64.s). It reads and writes
// through raw pointers: the caller indexes the last element of each.
//
//go:noescape
func gemm4x8(kc int, a *float64, lda int, p *float64, c *float64, ldc int)

// gemm4x16 is gemm4x8 over a 4 x 16 tile of C and kc packed rows of 16,
// in AVX-512 registers.
//
//go:noescape
func gemm4x16(kc int, a *float64, lda int, p *float64, c *float64, ldc int)

// cpuHasAVX reports whether the CPU and the OS support AVX.
func cpuHasAVX() bool

// cpuHasAVX512 reports whether the CPU and the OS support AVX-512F.
func cpuHasAVX512() bool
