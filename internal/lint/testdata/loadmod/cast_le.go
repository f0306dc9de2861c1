//go:build amd64 || arm64 || 386 || arm || riscv64 || wasm || loong64 || ppc64le || mips64le || mipsle

// The little-endian half of a per-arch pair, the shape of
// benchmark/bench's pin_linux.go / pin_other.go per-OS pair. Exactly one
// of cast_le.go and cast_portable.go loads on any host; both declare Cast.
package loadmod

// Cast is the little-endian fast path.
func Cast() string { return "le" }
