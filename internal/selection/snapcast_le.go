//go:build amd64 || arm64 || 386 || arm || riscv64 || wasm || loong64 || ppc64le || mips64le || mipsle

package selection

import "unsafe"

// Zero-copy section views for little-endian architectures: a snapshot
// section is exactly the in-memory representation of its array, so a
// loaded (or mmapped) segment can be sliced in place instead of decoded
// element by element. The casts require the platform byte order to match
// the format's (little-endian) and the payload to be 8-byte aligned —
// both checked; a nil return sends the caller to the portable decoder.
//
// Aliasing contract: the returned slices share memory with the input and
// are never written — Compiled is immutable and Patch writes its changed
// rows to tables of its own — so backing a snapshot with a read-only mmap
// is safe.

// castFloat64 reinterprets b as a []float64, or nil if unaligned.
func castFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return []float64{}
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// castInt32 reinterprets b as a []int32, or nil if unaligned.
func castInt32(b []byte) []int32 {
	if len(b) == 0 {
		return []int32{}
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}
