//go:build unix

package store

import (
	"os"
	"syscall"
)

// mapFile maps size bytes of f read-only and private. The mapping is
// intentionally never unmapped: the returned bytes back a Compiled
// snapshot whose lifetime the store cannot see, and a process holds at
// most one live snapshot mapping per store generation — superseded
// mappings are reclaimed when the process exits. The snapshot file is
// replaced by rename, never rewritten, so the mapped inode never changes
// underneath the snapshot even after its name points to a newer file.
func mapFile(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
}
