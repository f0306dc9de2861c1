// Compiled-snapshot persistence: one file, snapshot.qbsnap, in the
// selection package's QBSNAP1 format, replaced whole by writeAtomic (temp
// file, fsync, rename, directory fsync) — the same write Put makes.
//
// The file checks itself: a header CRC, a section-table CRC, a CRC per
// section, and the rule that the last section ends at end of file. So
// every crash point leaves a loadable state or an error, never a guess:
//
//   - crash while writing the temp file: the rename never happened and the
//     previous snapshot.qbsnap is intact; the next OpenSnapshots removes
//     the temp;
//   - torn or bit-flipped snapshot file (lost cache writes, disk rot): one
//     of the checksums or the end-of-file rule fails and Load reports
//     corruption.
//
// Callers treat any Load error as a cold start (recompile from models);
// a snapshot is a cache, and the design never serves a torn one.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/selection"
)

// SnapshotFile is the name of the one snapshot file in a snapshot store.
const SnapshotFile = "snapshot.qbsnap"

// ErrNoSnapshot is returned by Load when the store holds no snapshot yet.
var ErrNoSnapshot = errors.New("store: no snapshot")

// SnapshotStore persists compiled selection snapshots in a directory.
// Save and Load are safe against crashes at any point but not against
// concurrent Saves from multiple processes (one service owns the dir).
type SnapshotStore struct {
	dir string

	// WrapWriter, when non-nil, wraps the snapshot file's writer during
	// Save — the fault-injection point crash-safety tests use
	// (internal/faulty.Writer truncates the n-th write mid-buffer, the
	// torn-write scenario). Production code leaves it nil.
	WrapWriter func(io.Writer) io.Writer
	// DisableMmap forces Load onto the portable read-into-heap path even
	// where memory mapping is available (tests of the fallback).
	DisableMmap bool
}

// OpenSnapshots creates (if needed) and opens a snapshot store rooted at
// dir, removing the temp files of any Save a crash cut short.
func OpenSnapshots(dir string) (*SnapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open snapshots %s: %w", dir, err)
	}
	removeTemps(dir, func(target string) bool { return target == SnapshotFile })
	return &SnapshotStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (ss *SnapshotStore) Dir() string { return ss.dir }

// Save replaces the snapshot file with snap, returning its size in bytes.
// The previous snapshot stays the loadable one until the rename.
func (ss *SnapshotStore) Save(snap *selection.Snapshot) (int64, error) {
	data, err := selection.EncodeSnapshot(snap)
	if err != nil {
		return 0, fmt.Errorf("store: encode snapshot: %w", err)
	}
	err = writeAtomic(ss.dir, SnapshotFile, func(w io.Writer) error {
		if ss.WrapWriter != nil {
			w = ss.WrapWriter(w)
		}
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// Load reads, verifies, and decodes the snapshot file, returning it with
// its size in bytes; ErrNoSnapshot when there is none. On platforms with
// memory mapping the file is mapped read-only and the snapshot's numeric
// arrays alias the mapping (the file is replaced by rename, never
// rewritten, so the mapped inode can never change under the snapshot);
// elsewhere — or with DisableMmap — it is read onto the heap. Any
// integrity failure is an error: the caller falls back to a full
// recompile, never a torn snapshot.
func (ss *SnapshotStore) Load() (*selection.Snapshot, int64, error) {
	data, err := ss.read()
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, ErrNoSnapshot
		}
		return nil, 0, fmt.Errorf("store: read %s: %w", SnapshotFile, err)
	}
	snap, err := selection.DecodeSnapshot(data)
	if err != nil {
		return nil, 0, fmt.Errorf("store: decode %s: %w", SnapshotFile, err)
	}
	return snap, int64(len(data)), nil
}

// read returns the snapshot file's bytes, memory-mapped when possible.
func (ss *SnapshotStore) read() ([]byte, error) {
	f, err := os.Open(filepath.Join(ss.dir, SnapshotFile))
	if err != nil {
		return nil, err
	}
	defer f.Close() // a mapping outlives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !ss.DisableMmap && fi.Size() > 0 {
		if data, err := mapFile(f, fi.Size()); err == nil {
			return data, nil
		}
		// Fall through to the portable path on any mapping failure.
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}
