package main

import (
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
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
