package lint

// Tests for the //go:build-aware loader against the testdata/loadmod
// mini-module: a never-satisfied tag, an LE/portable per-arch pair,
// and the stale-directive rule's interaction with excluded files.

import (
	"path/filepath"
	"testing"
)

func loadmodPackages(t *testing.T) []*Package {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", "loadmod"))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if loader.Module != "loadmod" {
		t.Fatalf("module path = %q, want loadmod", loader.Module)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return pkgs
}

// TestLoaderHonorsBuildTags: the module holds four files — portable.go
// (always included), gated.go (tag never set), and the cast_le/
// cast_portable per-arch pair. Exactly two must load on any host; the
// excluded files each redeclare a symbol from an included one, so a
// loader that ignored //go:build would fail type-checking.
func TestLoaderHonorsBuildTags(t *testing.T) {
	pkg := loadmodPackages(t)[0]
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors (did an excluded file load?): %v", pkg.TypeErrors)
	}
	if len(pkg.Files) != 2 {
		names := make([]string, 0, len(pkg.Files))
		for _, f := range pkg.Files {
			names = append(names, filepath.Base(pkg.Fset.Position(f.Pos()).Filename))
		}
		t.Fatalf("loaded %d files %v, want exactly 2 (portable.go + one Cast half)", len(pkg.Files), names)
	}
	for _, f := range pkg.Files {
		if filepath.Base(pkg.Fset.Position(f.Pos()).Filename) == "gated.go" {
			t.Fatal("gated.go loaded despite its never-set build tag")
		}
	}
}

// TestExcludedFileDirectivesNotStale: gated.go carries a //lint:ignore
// that suppresses nothing in the loaded package. Because the file is
// excluded by its build tag, the directive must not be reported as
// stale — it does not exist as far as analysis is concerned. The
// violation next to it (a raw go statement) must not be reported
// either.
func TestExcludedFileDirectivesNotStale(t *testing.T) {
	pkgs := loadmodPackages(t)
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range Unsuppressed(diags) {
		t.Errorf("unexpected diagnostic from excluded-file content: %s", d)
	}
}
