package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faulty"
	"repro/internal/langmodel"
	"repro/internal/selection"
)

func snapFixture(epoch uint64, df int) *selection.Snapshot {
	a := langmodel.New()
	a.SetDocs(20)
	a.AddTerm("apple", langmodel.TermStats{DF: df, CTF: int64(df * 3)})
	a.AddTerm("stock", langmodel.TermStats{DF: 2, CTF: 5})
	b := langmodel.New()
	b.SetDocs(9)
	b.AddTerm("stock", langmodel.TermStats{DF: 7, CTF: 11})
	return &selection.Snapshot{
		Epoch:        epoch,
		Names:        []string{"alpha", "beta"},
		Fingerprints: []uint64{a.Fingerprint(), b.Fingerprint()},
		Compiled:     selection.Compile([]*langmodel.Model{a, b}),
	}
}

func openSnapDir(t *testing.T) *SnapshotStore {
	t.Helper()
	ss, err := OpenSnapshots(filepath.Join(t.TempDir(), "snap"))
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// dirFiles lists every file in the store's directory.
func dirFiles(t *testing.T, ss *SnapshotStore) []string {
	t.Helper()
	entries, err := os.ReadDir(ss.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	for _, mmap := range []bool{true, false} {
		ss := openSnapDir(t)
		ss.DisableMmap = !mmap
		if _, _, err := ss.Load(); !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("empty store Load err = %v, want ErrNoSnapshot", err)
		}
		in := snapFixture(7, 4)
		n, err := ss.Save(in)
		if err != nil {
			t.Fatal(err)
		}
		out, size, err := ss.Load()
		if err != nil {
			t.Fatalf("mmap=%v: %v", mmap, err)
		}
		if size != n {
			t.Fatalf("Load size %d, Save said %d", size, n)
		}
		if out.Epoch != 7 || len(out.Names) != 2 || out.Names[1] != "beta" {
			t.Fatalf("loaded %+v", out)
		}
		if out.Fingerprints[0] != in.Fingerprints[0] || out.Fingerprints[1] != in.Fingerprints[1] {
			t.Fatal("fingerprints did not round-trip")
		}
		got := out.Compiled.Rank(selection.CORI{}, []string{"stock"})
		want := in.Compiled.Rank(selection.CORI{}, []string{"stock"})
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("loaded snapshot ranks %v, want %v", got, want)
		}
	}
}

// TestSnapshotSaveReplacesAndGCs: every Save replaces the one snapshot
// file, and a temp file a crashed Save left behind is gone once the store
// is opened again.
func TestSnapshotSaveReplacesAndGCs(t *testing.T) {
	ss := openSnapDir(t)
	leftover := filepath.Join(ss.Dir(), ".tmp-"+SnapshotFile+"-123")
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	ss, err := OpenSnapshots(ss.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for epoch := uint64(1); epoch <= 3; epoch++ {
		if _, err := ss.Save(snapFixture(epoch, int(epoch))); err != nil {
			t.Fatal(err)
		}
	}
	out, _, err := ss.Load()
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 3 {
		t.Fatalf("loaded epoch %d, want the latest (3)", out.Epoch)
	}
	if files := dirFiles(t, ss); len(files) != 1 || files[0] != SnapshotFile {
		t.Fatalf("directory holds %v, want only %s", files, SnapshotFile)
	}
}

// TestSnapshotTornSegmentWrite is the crash-safety scenario: the process
// dies mid-way through writing a new snapshot file (faulty.Writer delivers
// half a write, then fails). The previous snapshot must remain the loadable
// one, and the next healthy Save must recover fully.
func TestSnapshotTornSegmentWrite(t *testing.T) {
	ss := openSnapDir(t)
	if _, err := ss.Save(snapFixture(1, 1)); err != nil {
		t.Fatal(err)
	}

	ss.WrapWriter = func(w io.Writer) io.Writer { return faulty.WrapWriter(w, 1) }
	if _, err := ss.Save(snapFixture(2, 2)); !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("torn Save err = %v, want injected", err)
	}
	ss.WrapWriter = nil

	out, _, err := ss.Load()
	if err != nil {
		t.Fatalf("previous snapshot unloadable after torn write: %v", err)
	}
	if out.Epoch != 1 {
		t.Fatalf("loaded epoch %d, want the pre-crash 1", out.Epoch)
	}

	if _, err := ss.Save(snapFixture(3, 3)); err != nil {
		t.Fatal(err)
	}
	if out, _, err = ss.Load(); err != nil || out.Epoch != 3 {
		t.Fatalf("post-recovery Load = epoch %d, err %v", out.Epoch, err)
	}
	if files := dirFiles(t, ss); len(files) != 1 {
		t.Fatalf("torn-write leftovers not collected: %v", files)
	}
}

// TestSnapshotCorruptSegment flips one byte in the middle of the snapshot
// file, then truncates it to half: the file's own checksums and its
// end-of-file rule must refuse both.
func TestSnapshotCorruptSegment(t *testing.T) {
	ss := openSnapDir(t)
	ss.DisableMmap = true // the test rewrites the file in place
	if _, err := ss.Save(snapFixture(1, 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ss.Dir(), SnapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ss.Load(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt snapshot Load err = %v", err)
	}

	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ss.Load(); err == nil {
		t.Fatal("truncated snapshot loaded")
	}
}

func TestSnapshotMissingSegment(t *testing.T) {
	ss := openSnapDir(t)
	if _, err := ss.Save(snapFixture(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(ss.Dir(), SnapshotFile)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ss.Load(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing snapshot Load err = %v, want ErrNoSnapshot", err)
	}
}
