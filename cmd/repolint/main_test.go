package main

// Exit-code contract tests. CI's lint gate keys off these: 0 means the
// tree is clean, 1 means unsuppressed findings (printed to stdout), and
// 2 means repolint itself could not run — bad flags, no go.mod, or
// type-check failures (reported to stderr). Each test builds a throwaway
// mini-module under t.TempDir so the verdicts are hermetic.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
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

// TestSARIFOutput: -sarif writes a parseable SARIF 2.1.0 log whose
// results match the findings, with module-relative forward-slash URIs,
// and still exits 1.
func TestSARIFOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{"dirty.go": dirtySrc})
	sarifPath := filepath.Join(t.TempDir(), "repolint.sarif")
	code, _, stderr := runRepolint(t, dir, "-sarif", sarifPath)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr=%q)", code, stderr)
	}
	raw, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatalf("reading SARIF log: %v", err)
	}
	var doc lint.SARIFLog
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("SARIF log is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(doc.Runs))
	}
	sr := doc.Runs[0]
	if sr.Tool.Driver.Name != "repolint" {
		t.Errorf("driver name = %q, want repolint", sr.Tool.Driver.Name)
	}
	if len(sr.Tool.Driver.Rules) != len(lint.All()) {
		t.Errorf("rules = %d, want %d (one per analyzer)", len(sr.Tool.Driver.Rules), len(lint.All()))
	}
	if len(sr.Results) == 0 {
		t.Fatal("no results in SARIF log despite findings")
	}
	res := sr.Results[0]
	if res.RuleID != "maporder" {
		t.Errorf("ruleId = %q, want maporder", res.RuleID)
	}
	if res.RuleIndex < 0 || res.RuleIndex >= len(sr.Tool.Driver.Rules) ||
		sr.Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
		t.Errorf("ruleIndex %d does not point at rule %q", res.RuleIndex, res.RuleID)
	}
	uri := res.Locations[0].PhysicalLocation.ArtifactLocation.URI
	if uri != "dirty.go" {
		t.Errorf("uri = %q, want module-relative \"dirty.go\"", uri)
	}
	if res.Locations[0].PhysicalLocation.Region.StartLine == 0 {
		t.Error("startLine missing")
	}
}

// TestSARIFIncludesSuppressed: suppressed findings appear in the SARIF
// log with an inSource suppression carrying the justification, while the
// exit code stays 0.
func TestSARIFIncludesSuppressed(t *testing.T) {
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
	sarifPath := filepath.Join(t.TempDir(), "repolint.sarif")
	code, stdout, stderr := runRepolint(t, dir, "-sarif", sarifPath)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout=%q stderr=%q)", code, stdout, stderr)
	}
	raw, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc lint.SARIFLog
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs[0].Results) != 1 {
		t.Fatalf("results = %d, want the suppressed finding", len(doc.Runs[0].Results))
	}
	sup := doc.Runs[0].Results[0].Suppressions
	if len(sup) != 1 || sup[0].Kind != "inSource" {
		t.Fatalf("suppressions = %+v, want one inSource entry", sup)
	}
	if !strings.Contains(sup[0].Justification, "sort the result themselves") {
		t.Errorf("justification = %q, want the //lint:ignore reason", sup[0].Justification)
	}
}

// TestSARIFToStdout: "-" streams the log to stdout instead of a file.
func TestSARIFToStdout(t *testing.T) {
	dir := writeModule(t, map[string]string{"clean.go": cleanSrc})
	code, stdout, _ := runRepolint(t, dir, "-sarif", "-")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var doc lint.SARIFLog
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("stdout is not a SARIF document: %v\n%s", err, stdout)
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
}
