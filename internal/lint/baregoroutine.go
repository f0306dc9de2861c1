package lint

import (
	"go/ast"
	"strings"
)

// parallelPath is the one package allowed to spawn raw goroutines: the
// bounded, order-preserving worker pool every experiment and service
// fan-out goes through. Routing all concurrency through it keeps
// result order deterministic (the pool reassembles outputs by index)
// and keeps the goroutine count bounded under production load.
const parallelPath = "repro/internal/parallel"

// BareGoroutine forbids `go` statements outside internal/parallel.
// Network accept loops and similar per-connection lifecycles that
// genuinely cannot go through the pool carry a //lint:ignore with the
// justification.
var BareGoroutine = &Analyzer{
	Name: "baregoroutine",
	Doc: "forbid raw go statements outside internal/parallel; fan-out " +
		"must go through the ordered worker pool so results stay " +
		"deterministic and concurrency stays bounded",
	Run: runBareGoroutine,
}

func runBareGoroutine(pass *Pass) error {
	if pkgWithin(pass.Pkg.Path(), parallelPath) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw go statement outside internal/parallel: use parallel.Map/parallel.Group so fan-out stays ordered and bounded")
			}
			return true
		})
	}
	return nil
}

// pkgWithin reports whether pkg is root or a package under it.
func pkgWithin(pkg, root string) bool {
	return pkg == root || strings.HasPrefix(pkg, root+"/")
}
