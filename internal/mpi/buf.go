package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Buf is a message buffer. It always knows its length; whether it also
// carries real bytes depends on how it was created.
//
// The paper's large experiments (e.g. Fig. 9: 64 nodes x 24 ranks, each
// holding a 1536-rank x 16384-double result buffer) would need hundreds
// of gigabytes if every rank really allocated its receive buffer, so the
// benchmark harness runs with size-only buffers: every transfer and copy
// is charged its full virtual-time cost, but no bytes move. Correctness
// tests run the identical code paths with real buffers at small scale.
type Buf struct {
	b []byte
	n int
}

// nativeIsLE reports whether the host stores multi-byte words
// little-endian. The wire format of Buf is little-endian, so on (the
// overwhelmingly common) little-endian hosts a typed view of the bytes
// is exactly the element sequence and the per-element codec can be
// bypassed; on big-endian hosts every typed accessor falls back to the
// portable byte codec.
var nativeIsLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Bytes wraps a real byte slice as a buffer.
func Bytes(b []byte) Buf { return Buf{b: b, n: len(b)} }

// Sized returns a size-only buffer of n bytes with no backing storage.
func Sized(n int) Buf {
	if n < 0 {
		n = 0
	}
	return Buf{n: n}
}

// Alloc returns an n-byte buffer, with real backing storage iff real is
// true. It is the allocation primitive the harness and tests share.
func Alloc(n int, real bool) Buf {
	if real {
		return Bytes(make([]byte, n))
	}
	return Sized(n)
}

// Len returns the buffer length in bytes.
func (b Buf) Len() int { return b.n }

// Real reports whether the buffer carries actual bytes.
func (b Buf) Real() bool { return b.b != nil }

// Raw exposes the backing bytes (nil for size-only buffers).
func (b Buf) Raw() []byte { return b.b }

// Slice returns the sub-buffer [off, off+n). It works for size-only
// buffers as well, where it only adjusts the accounted length.
func (b Buf) Slice(off, n int) Buf {
	if off < 0 || n < 0 || off+n > b.n {
		panic(fmt.Sprintf("mpi: Buf.Slice(%d, %d) out of range of %d-byte buffer", off, n, b.n))
	}
	if b.b == nil {
		return Buf{n: n}
	}
	return Buf{b: b.b[off : off+n], n: n}
}

// CopyData moves bytes from src to dst when both sides are real. The
// byte count accounted (and returned) is min(len(dst), len(src))
// regardless, so size-only runs charge identical virtual time.
func CopyData(dst, src Buf) int {
	n := dst.n
	if src.n < n {
		n = src.n
	}
	if dst.b != nil && src.b != nil {
		copy(dst.b[:n], src.b[:n])
	}
	return n
}

// Float64 element helpers. The collectives and applications store
// double-precision values (the element type of every experiment in the
// paper) in little-endian order.

// PutFloat64 stores v at element index i (8-byte stride). Size-only
// buffers ignore writes.
func (b Buf) PutFloat64(i int, v float64) {
	if b.b == nil {
		return
	}
	binary.LittleEndian.PutUint64(b.b[8*i:], math.Float64bits(v))
}

// Float64At loads the element at index i; size-only buffers read zero.
func (b Buf) Float64At(i int) float64 {
	if b.b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b.b[8*i:]))
}

// PutInt64 stores v at element index i (8-byte stride).
func (b Buf) PutInt64(i int, v int64) {
	if b.b == nil {
		return
	}
	binary.LittleEndian.PutUint64(b.b[8*i:], uint64(v))
}

// Int64At loads the element at index i.
func (b Buf) Int64At(i int) int64 {
	if b.b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b.b[8*i:]))
}

// viewOK reports whether the backing bytes can be reinterpreted as a
// slice of 8-byte elements: real storage, a whole number of elements,
// native little-endian order, and 8-byte alignment (Slice can produce
// views at arbitrary byte offsets).
func (b Buf) viewOK() bool {
	return b.b != nil && nativeIsLE && b.n >= 8 && b.n%8 == 0 &&
		uintptr(unsafe.Pointer(&b.b[0]))%8 == 0
}

// Float64sView returns a zero-copy []float64 aliasing the buffer's
// first Len()/8 elements, or nil when no such view exists (size-only
// buffer, empty buffer, misaligned sub-slice, or big-endian host).
// Writes through the view are writes to the buffer. Callers must keep
// a per-element or bulk-codec fallback for the nil case.
func (b Buf) Float64sView() []float64 {
	if !b.viewOK() {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b.b[0])), b.n/8)
}

// Int64sView is Float64sView for signed 64-bit integers.
func (b Buf) Int64sView() []int64 {
	if !b.viewOK() {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b.b[0])), b.n/8)
}

// PutFloat64s bulk-stores v starting at element index i. It is
// equivalent to calling PutFloat64 for each element (including the
// panic on an out-of-range element span) but goes through one memmove
// on little-endian hosts. Size-only buffers ignore writes.
func (b Buf) PutFloat64s(i int, v []float64) {
	if b.b == nil {
		return
	}
	if dst := b.Float64sView(); dst != nil {
		copy(dst[i:i+len(v)], v)
		return
	}
	for j, x := range v {
		b.PutFloat64(i+j, x)
	}
}

// FromFloat64s packs a float64 slice into a fresh real buffer.
func FromFloat64s(v []float64) Buf {
	b := Bytes(make([]byte, 8*len(v)))
	b.PutFloat64s(0, v)
	return b
}

// Float64s unpacks the buffer into a fresh float64 slice (length
// Len()/8), through one memmove where the buffer has a typed view and
// the per-element codec otherwise. Size-only buffers produce zeros.
func (b Buf) Float64s() []float64 {
	out := make([]float64, b.n/8)
	if src := b.Float64sView(); src != nil {
		copy(out, src)
		return out
	}
	for i := range out {
		out[i] = b.Float64At(i)
	}
	return out
}
