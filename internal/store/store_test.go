package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faulty"
	"repro/internal/langmodel"
)

func model(texts ...string) *langmodel.Model {
	m := langmodel.New()
	for _, t := range texts {
		m.AddDocument(strings.Fields(t))
	}
	return m
}

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	m := model("apple apple bear", "cat")
	if err := s.Put("wsj88", m); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("wsj88")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Error("round trip mismatch")
	}
}

func TestGetMissing(t *testing.T) {
	s := open(t)
	_, err := s.Get("nope")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("got %v, want ErrNotFound", err)
	}
}

func TestPutReplacesAtomically(t *testing.T) {
	s := open(t)
	if err := s.Put("db", model("old content")); err != nil {
		t.Fatal(err)
	}
	newModel := model("new content entirely")
	if err := s.Put("db", newModel); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("db")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(newModel) {
		t.Error("replacement not visible")
	}
	// No temp litter.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// TestWriteAtomicTornWrite: a write that dies part-way through (faulty.Writer
// delivers half a buffer, then fails) leaves the previous file readable and
// no temp file behind — the promise Put rests on.
func TestWriteAtomicTornWrite(t *testing.T) {
	s := open(t)
	old := model("old content")
	if err := s.Put("db", old); err != nil {
		t.Fatal(err)
	}
	err := writeAtomic(s.Dir(), "db"+Ext, func(w io.Writer) error {
		_, err := model("new content entirely").WriteBinary(faulty.WrapWriter(w, 1))
		return err
	})
	if !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("torn write err = %v, want injected", err)
	}
	got, err := s.Get("db")
	if err != nil {
		t.Fatalf("previous model unreadable after a torn write: %v", err)
	}
	if !got.Equal(old) {
		t.Error("a torn write changed the stored model")
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestList(t *testing.T) {
	s := open(t)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := s.Put(name, model("x")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("List = %v, want %v", names, want)
	}
}

func TestListIgnoresForeignFiles(t *testing.T) {
	s := open(t)
	if err := s.Put("real", model("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(s.Dir(), "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "real" {
		t.Errorf("List = %v, want [real]", names)
	}
}

func TestDelete(t *testing.T) {
	s := open(t)
	if err := s.Put("victim", model("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("victim"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("victim"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted model still readable")
	}
	// Idempotent.
	if err := s.Delete("victim"); err != nil {
		t.Errorf("second delete errored: %v", err)
	}
}

func TestNameValidation(t *testing.T) {
	s := open(t)
	bad := []string{"", ".", "..", "a/b", `a\b`, ".hidden", "../escape"}
	for _, name := range bad {
		if err := s.Put(name, model("x")); err == nil {
			t.Errorf("Put accepted bad name %q", name)
		}
		if _, err := s.Get(name); err == nil {
			t.Errorf("Get accepted bad name %q", name)
		}
		if err := s.Delete(name); err == nil {
			t.Errorf("Delete accepted bad name %q", name)
		}
	}
	// Names with dots inside are fine.
	if err := s.Put("db.v2", model("x")); err != nil {
		t.Errorf("dotted name rejected: %v", err)
	}
}

func TestGetCorruptFile(t *testing.T) {
	s := open(t)
	if err := os.WriteFile(filepath.Join(s.Dir(), "bad"+Ext), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("bad"); err == nil {
		t.Error("corrupt model decoded without error")
	}
}

func TestOpenCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "c")
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("directory not created: %v", err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := open(t)
	if err := s.Put("shared", model("initial text")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 20)
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if err := s.Put("shared", model("version", string(rune('a'+i)))); err != nil {
				errCh <- err
			}
		}(i)
		go func() {
			defer wg.Done()
			if _, err := s.Get("shared"); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestOpenRemovesOwnTemps: a store directory holds a live model and the
// temp of a Put that a crash cut short, beside a temp of a file the store
// does not write. Open removes exactly its own leftover, and the model
// still loads.
func TestOpenRemovesOwnTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("wsj-88", model("stock market")); err != nil {
		t.Fatal(err)
	}
	modelTemp, otherTemp := ".tmp-wsj-88"+Ext+"-4242", ".tmp-notes.txt-1"
	for _, name := range []string{modelTemp, otherTemp} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files := func() string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return strings.Join(names, " ")
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if got, want := files(), strings.Join([]string{otherTemp, "wsj-88" + Ext}, " "); got != want {
		t.Errorf("after Open the directory holds %s, want %s", got, want)
	}
	if _, err := s.Get("wsj-88"); err != nil {
		t.Errorf("the live model: %v", err)
	}
}
