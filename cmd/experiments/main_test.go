package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestDocListsIDs holds the package doc's id block to the ids the -exp
// check accepts, so neither can name an experiment the other lacks.
func TestDocListsIDs(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	_, block, ok := strings.Cut(doc, "-exp selects experiments by id (comma-separated), from:\n\n")
	if !ok {
		t.Fatalf("package doc has no id block:\n%s", doc)
	}
	block, _, _ = strings.Cut(block, "\n\n")
	if got := strings.Fields(block); !slices.Equal(got, ids) {
		t.Errorf("package doc lists %v, -exp accepts %v", got, ids)
	}
}

// TestPrintTimingSorted: the -timing table lists the experiments_ timers
// sorted by name, whatever order the registry's map yields them in, and
// leaves other timers out.
func TestPrintTimingSorted(t *testing.T) {
	reg := telemetry.NewRegistry()
	var want []string
	for i := 11; i >= 0; i-- {
		name := fmt.Sprintf("experiments_t%02d_seconds", i)
		reg.Histogram(name).Observe(0.5)
		want = append([]string{name}, want...)
	}
	reg.Histogram("suite_build_seconds").Observe(1)
	var b strings.Builder
	printTiming(&b, reg)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "timer") {
		t.Fatalf("no header:\n%s", b.String())
	}
	var got []string
	for _, line := range lines[1:] {
		got = append(got, strings.Fields(line)[0])
	}
	if !slices.Equal(got, want) {
		t.Errorf("timers listed as %v, want %v", got, want)
	}
}
