package lint

// Fixture tests for the CFG/dataflow analyzer, plus structural unit
// tests of the CFG builder and the fixpoint solver itself.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func TestLockHeld(t *testing.T) {
	runCase(t, LockHeld, "lockheld/bad", "repro/internal/locks")
	runCase(t, LockHeld, "lockheld/allowed", "repro/internal/locks")
	runCase(t, LockHeld, "lockheld/ignored", "repro/internal/locks")
}

// cfgOf type-checks src (a complete file) and builds the CFG of the
// named function.
func cfgOf(t *testing.T, src, fn string) *CFG {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return BuildCFG(fd.Body, info)
		}
	}
	t.Fatalf("no function %q in source", fn)
	return nil
}

// reachable walks successor edges from the entry block.
func reachable(g *CFG) map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	if len(g.Blocks) > 0 {
		walk(g.Blocks[0])
	}
	return seen
}

func TestCFGBranchesJoinAtExit(t *testing.T) {
	g := cfgOf(t, `package p
func f(cond bool) int {
	if cond {
		return 1
	}
	return 2
}`, "f")
	if !reachable(g)[g.Exit] {
		t.Fatal("exit unreachable through either branch")
	}
}

func TestCFGInfiniteLoopNeverReachesExit(t *testing.T) {
	g := cfgOf(t, `package p
func f() {
	for {
	}
}`, "f")
	if reachable(g)[g.Exit] {
		t.Fatal("exit should be unreachable past `for {}`")
	}
}

func TestCFGBreakEscapesLoop(t *testing.T) {
	g := cfgOf(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
	}
}`, "f")
	if !reachable(g)[g.Exit] {
		t.Fatal("break should make exit reachable")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := cfgOf(t, `package p
func f(m [][]int) int {
	total := 0
outer:
	for _, row := range m {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			total += v
		}
	}
	return total
}`, "f")
	if !reachable(g)[g.Exit] {
		t.Fatal("labeled break should make exit reachable")
	}
}

func TestCFGPanicTerminatesBlock(t *testing.T) {
	g := cfgOf(t, `package p
func f(cond bool) int {
	if cond {
		panic("boom")
	}
	return 0
}`, "f")
	var panicBlock *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
						panicBlock = b
					}
				}
				return true
			})
		}
	}
	if panicBlock == nil {
		t.Fatal("no block holds the panic call")
	}
	if len(panicBlock.Succs) != 0 {
		t.Fatalf("panic block has %d successors, want 0", len(panicBlock.Succs))
	}
	if !reachable(g)[g.Exit] {
		t.Fatal("the non-panicking path should still reach exit")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	// Both the fallthrough chain and the default path must reach exit,
	// and the fixpoint below must converge over the case diamond.
	g := cfgOf(t, `package p
func f(n int) int {
	out := 0
	switch n {
	case 0:
		out = 1
		fallthrough
	case 1:
		out += 2
	default:
		out = 9
	}
	return out
}`, "f")
	if !reachable(g)[g.Exit] {
		t.Fatal("switch paths should reach exit")
	}
}

// TestForwardReachingCount checks the forward solver on a loop: a
// saturating counter fact must converge (finite lattice) rather than
// iterate forever, and every reachable block must receive an IN fact.
func TestForwardReachingCount(t *testing.T) {
	g := cfgOf(t, `package p
func f(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}`, "f")
	const limit = 8
	in := Forward(g, 0,
		func(b *Block, f int) int {
			if f >= limit {
				return limit
			}
			return f + 1
		},
		func(a, b int) int {
			if a > b {
				return a
			}
			return b
		},
		func(a, b int) bool { return a == b },
	)
	for b := range reachable(g) {
		if _, ok := in[b]; !ok {
			t.Fatalf("reachable block %d has no IN fact", b.Index)
		}
	}
	if exit, ok := in[g.Exit]; !ok || exit == 0 {
		t.Fatalf("exit fact = %d, %v; want saturated positive count", exit, ok)
	}
}
