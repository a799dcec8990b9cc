package la

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestCPUHasAVX512MatchesKernel holds the CPUID and XGETBV probe to what
// Linux reports: the kernel lists the avx512f flag in /proc/cpuinfo only
// when the CPU has AVX-512F and the kernel saves its state.
func TestCPUHasAVX512MatchesKernel(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for line := range strings.Lines(string(info)) {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		want := slices.Contains(strings.Fields(flags), "avx512f")
		if got := cpuHasAVX512(); got != want {
			t.Errorf("cpuHasAVX512() = %v, /proc/cpuinfo lists avx512f: %v", got, want)
		}
		if want && gemmLevel != gemmAVX512 {
			t.Errorf("gemmLevel = %d on an AVX-512 host, want %d", gemmLevel, gemmAVX512)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
