// Package store persists learned language models on disk. A selection
// service samples each database once (or occasionally re-samples) and
// consults the stored models for every query thereafter; models must
// survive restarts and be cheap to load. Files use the compact binary
// format of langmodel.WriteBinary (QBLM1) and are written atomically
// (temp file + fsync + rename + directory fsync), so a crash can never
// leave a torn model.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/langmodel"
)

// Ext is the file extension for stored models.
const Ext = ".qblm"

// ErrNotFound is returned by Get for unknown model names.
var ErrNotFound = errors.New("store: model not found")

// Store is a directory of named language models. Methods are safe for
// concurrent use by multiple goroutines as long as names are not written
// concurrently with themselves (last write wins either way — writes are
// atomic renames).
type Store struct {
	dir string
}

// Open creates (if needed) and opens a model store rooted at dir, removing
// the temp files of any Put a crash cut short.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	removeTemps(dir)
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validName rejects names that would escape the store directory or
// collide with temp files.
func validName(name string) error {
	if name == "" {
		return errors.New("store: empty model name")
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("store: invalid model name %q", name)
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("store: model name %q may not start with a dot", name)
	}
	return nil
}

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, name+Ext)
}

// Put writes the model under name, replacing any previous version
// atomically.
func (s *Store) Put(name string, m *langmodel.Model) error {
	if err := validName(name); err != nil {
		return err
	}
	return writeAtomic(s.dir, name+Ext, func(w io.Writer) error {
		_, err := m.WriteBinary(w)
		return err
	})
}

// writeAtomic replaces dir/name with what write produces, so that a crash
// at any point leaves either the old file or the new one, never a torn one.
// write fills a temp file in dir; the temp file is fsynced before the
// rename publishes it, and the directory is fsynced after, so the new
// entry survives a crash too. On failure the temp file is removed and the
// old file is untouched.
func writeAtomic(dir, name string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, tempPrefix+name+"-*")
	if err != nil {
		return fmt.Errorf("store: temp file for %s: %w", name, err)
	}
	tmpName := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: sync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: close %s: %w", name, err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: rename %s: %w", name, err)
	}
	return syncDir(dir)
}

// tempPrefix starts the name of every temp file writeAtomic makes:
// .tmp-<target>-<random>. A store's names never start with a dot
// (validName), so no stored file can be taken for one.
const tempPrefix = ".tmp-"

// removeTemps removes the temp files in dir that a process killed between
// writeAtomic's CreateTemp and its rename left behind. Only the temps of
// model files go: a temp whose target the store does not write is someone
// else's. Open calls it before the store has a write of its own in flight.
// Best effort: a leftover costs disk, never correctness.
func removeTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), tempPrefix)
		if i := strings.LastIndexByte(rest, '-'); ok && i >= 0 && strings.HasSuffix(rest[:i], Ext) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// syncDir fsyncs a directory, making recent renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	// Durability is decided by the Sync below, so Close's error is dropped.
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// Get loads the model stored under name. Returns ErrNotFound for unknown
// names.
func (s *Store) Get(name string) (*langmodel.Model, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	f, err := os.Open(s.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %q: %w", name, ErrNotFound)
		}
		return nil, fmt.Errorf("store: open %s: %w", name, err)
	}
	defer f.Close()
	m, err := langmodel.ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("store: decode %s: %w", name, err)
	}
	return m, nil
}

// Delete removes the model stored under name. Deleting a missing model is
// not an error.
func (s *Store) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := os.Remove(s.path(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %s: %w", name, err)
	}
	return nil
}

// List returns the names of all stored models, sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), Ext) {
			continue
		}
		names = append(names, strings.TrimSuffix(e.Name(), Ext))
	}
	sort.Strings(names)
	return names, nil
}
