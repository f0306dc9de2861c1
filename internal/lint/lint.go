// Package lint is a small, dependency-free static-analysis framework
// that enforces the two concurrency invariants this repository's tests
// cannot: all fan-out goes through the internal/parallel pool
// (baregoroutine), and nothing blocks while a mutex is held (lockheld).
// A raw goroutine whose completion order happens to match its input
// order passes every golden and the race detector; a blocking call
// under a lock stalls only under contention the tests never build. The
// determinism invariants the analyzers once guarded as well (seeded
// randomness, no wall clock, no map order in output) are held by the
// byte-identical goldens and tests instead (DESIGN.md §7).
//
// The framework is built only on the standard library's go/ast,
// go/parser, go/token and go/types packages, matching the module's
// zero-dependency go.mod. Analyzers implement a minimal interface (a
// name, a doc string, and a Run function over a type-checked package)
// and report position-accurate diagnostics. Findings can be suppressed
// at the offending line with an explanatory directive:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either at the end of the offending line or on the line
// immediately above it. The reason is mandatory; a directive without
// one is itself a diagnostic, and so is a directive that suppresses
// nothing (so stale suppressions cannot accumulate).
//
// The cmd/repolint driver loads packages, runs every registered
// analyzer, and exits non-zero on unsuppressed findings; `make lint`
// and CI run it over ./... on every change.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named invariant check. Run inspects a single
// type-checked package through the Pass and reports findings via
// Pass.Reportf; it returns an error only for internal failures
// (a finding is not an error).
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant and why
	// the repository needs it.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the parsed syntax trees of the package's non-test
	// Go files, in stable (sorted filename) order.
	Files []*ast.File
	// Pkg is the type-checked package. Its Path is the import path
	// analyzers use for location-scoped rules (e.g. "raw go statements are
	// allowed only under internal/parallel").
	Pkg *types.Package
	// Info holds type information for the package's syntax. It is
	// always non-nil, but entries may be missing for code that
	// failed to type-check; analyzers must tolerate nil lookups.
	Info *types.Info
	// Prog is the whole-run program view shared by every pass: the
	// lightweight call graph the interprocedural analyzer (lockheld)
	// resolves module calls through. When repolint runs over
	// ./... it spans the entire module; fixture tests see just their
	// own package.
	Prog *Program

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned at a file:line:column.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	// Suppressed marks findings covered by a //lint:ignore
	// directive; drivers report them only on request.
	Suppressed bool `json:"suppressed,omitempty"`
	// SuppressReason is the justification given in the directive.
	SuppressReason string `json:"suppressReason,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package and returns all
// diagnostics — including suppressed ones, marked as such — sorted by
// position. Malformed or unused //lint:ignore directives are reported
// as diagnostics of the pseudo-analyzer "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	prog := NewProgram(pkgs)
	var all []Diagnostic
	for _, pkg := range pkgs {
		ignores, malformed := collectIgnores(pkg.Fset, pkg.Files)
		all = append(all, malformed...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.diags {
				if ig := ignores.match(d.Analyzer, d.Pos); ig != nil {
					d.Suppressed = true
					d.SuppressReason = ig.reason
					ig.used = true
				}
				all = append(all, d)
			}
		}
		all = append(all, ignores.unused(analyzers)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// Unsuppressed filters diags down to the findings a driver should fail
// on.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// All returns the analyzer set enforced by cmd/repolint, in stable
// order: the syntactic fan-out check, then the interprocedural lock
// proof.
func All() []*Analyzer {
	return []*Analyzer{BareGoroutine, LockHeld}
}
