//go:build !unix

package store

import (
	"errors"
	"os"
)

// mapFile reports memory mapping as unsupported; Load falls back to
// reading the snapshot file onto the heap.
func mapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errors.ErrUnsupported
}
