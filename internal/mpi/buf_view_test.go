package mpi

import (
	"math"
	"math/rand"
	"testing"
)

// TestFloat64sViewAliasesBuffer checks the zero-copy contract: writes
// through the view are visible to the codec accessors and vice versa.
func TestFloat64sViewAliasesBuffer(t *testing.T) {
	b := Bytes(make([]byte, 4*8))
	v := b.Float64sView()
	if v == nil {
		t.Skip("no typed views on this platform (big-endian)")
	}
	if len(v) != 4 {
		t.Fatalf("view length = %d, want 4", len(v))
	}
	v[2] = 6.25
	if got := b.Float64At(2); got != 6.25 {
		t.Errorf("write through view not visible via Float64At: %v", got)
	}
	b.PutFloat64(3, -1.5)
	if v[3] != -1.5 {
		t.Errorf("PutFloat64 not visible through view: %v", v[3])
	}
}

// TestViewUnavailableCases enumerates when a view must be refused.
func TestViewUnavailableCases(t *testing.T) {
	if Sized(64).Float64sView() != nil {
		t.Error("size-only buffer returned a view")
	}
	if Sized(64).Int64sView() != nil {
		t.Error("size-only buffer returned an int64 view")
	}
	if Bytes(nil).Float64sView() != nil {
		t.Error("empty buffer returned a view")
	}
	// Four bytes past an 8-byte-aligned start, found the way
	// bufWithView finds it: make need not return an aligned slice (on
	// 386, or for a slice kept on the stack). A big-endian host has no
	// views at all, so any start will do there.
	start := Bytes(make([]byte, 72))
	if nativeIsLE {
		start = bufWithView(72, true)
	}
	misaligned := start.Slice(4, 64)
	if misaligned.Float64sView() != nil {
		t.Error("4-byte-offset sub-buffer returned a view")
	}
}

// TestBulkFloat64sMatchPerElement proves PutFloat64s and Float64s
// byte-identical to the per-element accessors, on buffers that take the
// view path and buffers that fall back to the codec.
func TestBulkFloat64sMatchPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 31)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	vals[7] = math.NaN()
	vals[11] = math.Inf(-1)

	for _, aligned := range []bool{true, false} {
		view := aligned && nativeIsLE
		bulk, ref := bufWithView(8*40, view), bufWithView(8*40, view)
		bulk.PutFloat64s(5, vals)
		for j, v := range vals {
			ref.PutFloat64(5+j, v)
		}
		for i := 0; i < 40; i++ {
			gb, gr := bulk.Float64At(i), ref.Float64At(i)
			if math.Float64bits(gb) != math.Float64bits(gr) {
				t.Fatalf("aligned=%v: PutFloat64s elem %d = %v, per-element wrote %v", aligned, i, gb, gr)
			}
		}

		got := bulk.Slice(8*5, 8*len(vals)).Float64s()
		if len(got) != len(vals) {
			t.Fatalf("aligned=%v: Float64s returned %d elems, want %d", aligned, len(got), len(vals))
		}
		for j := range vals {
			if math.Float64bits(got[j]) != math.Float64bits(vals[j]) {
				t.Fatalf("aligned=%v: Float64s elem %d = %v, want %v", aligned, j, got[j], vals[j])
			}
		}
	}
}

// bufWithView returns an n-byte real buffer that has a typed view
// (view) or has none because its first byte is not 8-byte aligned
// (!view). The offset is searched, not assumed: a byte slice the
// compiler keeps on the stack need not start 8-byte aligned.
func bufWithView(n int, view bool) Buf {
	raw := Bytes(make([]byte, n+8))
	for off := 0; ; off++ {
		if b := raw.Slice(off, n); (b.Float64sView() != nil) == view {
			return b
		}
	}
}

// TestBulkFloat64sSizeOnly: writes are ignored, reads yield zeros.
func TestBulkFloat64sSizeOnly(t *testing.T) {
	b := Sized(64)
	b.PutFloat64s(0, []float64{1, 2, 3}) // must not panic
	got := b.Slice(8*2, 8*3).Float64s()
	if len(got) != 3 {
		t.Fatalf("size-only Float64s returned %d elems, want 3", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Errorf("size-only Float64s elem %d = %v, want 0", i, v)
		}
	}
}

// TestInt64sView mirrors the float64 aliasing contract for int64. The
// buffer starts where bufWithView finds a view: make need not return an
// 8-byte-aligned slice (on 386 it often does not).
func TestInt64sView(t *testing.T) {
	if !nativeIsLE {
		t.Skip("no typed views on a big-endian host")
	}
	b := bufWithView(3*8, true)
	v := b.Int64sView()
	if v == nil {
		t.Fatal("no int64 view where a float64 view exists")
	}
	v[1] = -42
	if got := b.Int64At(1); got != -42 {
		t.Errorf("write through int64 view not visible: %d", got)
	}
	b.PutInt64(2, 1<<40)
	if v[2] != 1<<40 {
		t.Errorf("PutInt64 not visible through view: %d", v[2])
	}
}
