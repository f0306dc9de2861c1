package lint

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Analyzer fixtures: each case is a violation, an allowed/idiomatic
// form, or a justified suppression. The want expectations live inline
// in the fixtures, so a disabled or broken analyzer fails its case.

func TestBareGoroutine(t *testing.T) {
	runCase(t, BareGoroutine, "baregoroutine/bad", "repro/internal/svc")
	runCase(t, BareGoroutine, "baregoroutine/allowed", "repro/internal/parallel")
	runCase(t, BareGoroutine, "baregoroutine/ignored", "repro/internal/svc")
}

// TestDirectiveHygiene checks the framework's own diagnostics: a
// reason-less directive is malformed (and suppresses nothing, so the
// goroutine under it is still reported), and a directive that matches
// no finding is flagged as stale — unless it names only analyzers
// outside the run set, like line 21's errsink: no want covers that line,
// so a diagnostic there fails the case.
func TestDirectiveHygiene(t *testing.T) {
	runCase(t, BareGoroutine, "directive/bad", "repro/internal/dirs",
		wantAt{line: 9, re: `malformed lint:ignore directive`},
		wantAt{line: 10, re: `raw go statement outside internal/parallel`},
		wantAt{line: 15, re: `suppresses nothing`},
	)
}

// TestVetReportsLockByValue: repolint has no lock-copy analyzer because
// go vet's copylocks check reports every lock passed by value. go vet
// ./... skips testdata, so this runs vet on the fixture directly.
func TestVetReportsLockByValue(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	out, err := exec.Command(gobin, "vet", "./testdata/copylocks").CombinedOutput()
	if err == nil {
		t.Fatalf("go vet exited 0 on the copylocks fixture:\n%s", out)
	}
	var lines []string
	for _, m := range regexp.MustCompile(`bad\.go:(\d+):\d+: .*passes lock by value`).FindAllSubmatch(out, -1) {
		lines = append(lines, string(m[1]))
	}
	if got := strings.Join(lines, ","); got != "12,19,26" {
		t.Fatalf("lock-by-value findings at lines %q, want 12,19,26; vet said:\n%s", got, out)
	}
}

// TestSuppressionRecorded checks that suppressed findings stay visible
// to drivers (for -show-ignored) with their justification attached.
func TestSuppressionRecorded(t *testing.T) {
	pkg := loadFixture(t, filepath.Join("testdata", "baregoroutine", "ignored"), "repro/internal/svc")
	diags, err := Run([]*Package{pkg}, []*Analyzer{BareGoroutine})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(Unsuppressed(diags)) != 0 {
		t.Fatalf("want no unsuppressed findings, got %v", Unsuppressed(diags))
	}
	if len(diags) != 1 {
		t.Fatalf("want 1 recorded (suppressed) finding, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if !d.Suppressed || !strings.Contains(d.SuppressReason, "accept loop") {
		t.Fatalf("suppression not recorded with reason: %+v", d)
	}
}

// TestLoaderLocalPackage exercises the module-aware loader on a real
// package with only stdlib imports.
func TestLoaderLocalPackage(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if loader.Module != "repro" {
		t.Fatalf("module path = %q, want repro", loader.Module)
	}
	pkgs, err := loader.Load("./internal/randx")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "repro/internal/randx" {
		t.Fatalf("loaded %v, want repro/internal/randx", pkgs)
	}
	if len(pkgs[0].TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkgs[0].TypeErrors)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := Unsuppressed(diags); len(got) != 0 {
		t.Fatalf("internal/randx should be clean, got %v", got)
	}
}

// TestLoaderResolvesLocalImports loads a package that imports other
// module packages, forcing the recursive local resolver.
func TestLoaderResolvesLocalImports(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./internal/summarize")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs[0].TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkgs[0].TypeErrors)
	}
}
