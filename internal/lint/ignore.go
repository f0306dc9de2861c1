package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// ignorePrefix introduces a suppression directive. The full syntax is
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// and the directive covers findings from the named analyzers on the
// directive's own line (trailing comment) or on the line immediately
// below it (comment on its own line).
const ignorePrefix = "//lint:ignore"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers []string
	reason    string
	pos       token.Position // of the comment itself
	used      bool
}

func (ig *ignoreDirective) covers(analyzer string, line int) bool {
	if line != ig.pos.Line && line != ig.pos.Line+1 {
		return false
	}
	for _, a := range ig.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// ignoreSet indexes a package's directives by filename.
type ignoreSet map[string][]*ignoreDirective

// match returns the directive suppressing a finding from analyzer at
// pos, or nil.
func (s ignoreSet) match(analyzer string, pos token.Position) *ignoreDirective {
	for _, ig := range s[pos.Filename] {
		if ig.covers(analyzer, pos.Line) {
			return ig
		}
	}
	return nil
}

// unused reports directives that suppressed nothing, restricted to
// analyzers that actually ran. A directive naming an analyzer outside
// the run set is not a finding: benchmark/bench still carries errsink
// directives for an analyzer repolint no longer has, and that tree is
// edited only together with the benchmark it defines.
func (s ignoreSet) unused(ran []*Analyzer) []Diagnostic {
	active := make(map[string]bool, len(ran))
	for _, a := range ran {
		active[a.Name] = true
	}
	files := make([]string, 0, len(s))
	for f := range s {
		files = append(files, f)
	}
	sort.Strings(files)
	var out []Diagnostic
	for _, f := range files {
		for _, ig := range s[f] {
			if ig.used {
				continue
			}
			relevant := false
			for _, a := range ig.analyzers {
				if active[a] {
					relevant = true
					break
				}
			}
			if relevant {
				out = append(out, Diagnostic{
					Analyzer: "lint",
					Pos:      ig.pos,
					Message:  "lint:ignore directive suppresses nothing; remove it",
				})
			}
		}
	}
	return out
}

// collectIgnores parses every //lint:ignore directive in the package's
// files. Malformed directives (no analyzer, or no reason) are returned
// as diagnostics so suppressions always carry a justification.
func collectIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []Diagnostic) {
	set := make(ignoreSet)
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignorefoo — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				set[pos.Filename] = append(set[pos.Filename], &ignoreDirective{
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
					pos:       pos,
				})
			}
		}
	}
	return set, malformed
}
