package main

// Exit-code contract tests. CI's lint gate keys off these: 0 means the
// tree is clean, 1 means unsuppressed findings (printed to stdout), and
// 2 means repolint itself could not run — bad flags, no go.mod, or
// type-check failures (reported to stderr). Each test builds a throwaway
// mini-module under t.TempDir so the verdicts are hermetic.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a single-package module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const cleanSrc = `package tmpmod

// Answer is trivially clean under every analyzer.
func Answer() int { return 42 }
`

// dirtySrc trips maporder: map-iteration order feeds an ordered slice.
const dirtySrc = `package tmpmod

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`

const brokenSrc = `package tmpmod

func Broken() int { return "not an int" }
`

func runRepolint(t *testing.T, dir string, extra ...string) (code int, stdout, stderr string) {
	t.Helper()
	args := append([]string{"-C", dir}, extra...)
	args = append(args, "./...")
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestExitZeroOnCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{"clean.go": cleanSrc})
	code, stdout, stderr := runRepolint(t, dir)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout=%q stderr=%q)", code, stdout, stderr)
	}
	if stdout != "" || stderr != "" {
		t.Fatalf("clean run must be silent, got stdout=%q stderr=%q", stdout, stderr)
	}
}

func TestExitOneOnFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{"dirty.go": dirtySrc})
	code, stdout, stderr := runRepolint(t, dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stdout=%q stderr=%q)", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "maporder") {
		t.Errorf("finding missing from stdout: %q", stdout)
	}
	if !strings.Contains(stdout, "1 finding(s)") {
		t.Errorf("summary trailer missing from stdout: %q", stdout)
	}
	if stderr != "" {
		t.Errorf("findings belong on stdout, stderr got %q", stderr)
	}
}

func TestExitTwoOnTypeError(t *testing.T) {
	dir := writeModule(t, map[string]string{"broken.go": brokenSrc})
	code, _, stderr := runRepolint(t, dir)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr=%q)", code, stderr)
	}
	if !strings.Contains(stderr, "type error") {
		t.Errorf("type error missing from stderr: %q", stderr)
	}
}

func TestExitTwoOnMissingModule(t *testing.T) {
	code, _, stderr := runRepolint(t, t.TempDir())
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr=%q)", code, stderr)
	}
	if stderr == "" {
		t.Error("load error must be reported to stderr")
	}
}

// TestShowIgnoredCarriesJustification: -show-ignored prints a suppressed
// finding with its //lint:ignore justification — the ledger the
// suppression ratchet counts — while the exit code stays 0.
func TestShowIgnoredCarriesJustification(t *testing.T) {
	const suppressed = `package tmpmod

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:ignore maporder callers sort the result themselves
		out = append(out, k)
	}
	return out
}
`
	dir := writeModule(t, map[string]string{"dirty.go": suppressed})
	code, stdout, stderr := runRepolint(t, dir, "-show-ignored")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout=%q stderr=%q)", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "ignored: ") {
		t.Fatalf("stdout = %q, want one ignored: line", stdout)
	}
	if !strings.Contains(lines[0], "maporder") || !strings.Contains(lines[0], "[callers sort the result themselves]") {
		t.Errorf("ignored line = %q, want the analyzer and the //lint:ignore reason", lines[0])
	}
}
