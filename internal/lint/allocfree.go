package lint

// allocfree proves that functions marked //lint:hotpath — and everything
// they transitively call inside the module — perform no heap allocations.
// PR 5 made the query-serving path (Compiled.ScoreInto/RankInto,
// analysis.AppendTokens, index.SearchScored, the rank-flight lookup)
// allocation-free by construction, and the benchmarks assert 0 allocs/op;
// but a benchmark only guards the paths it exercises, and an innocuous
// fmt.Sprintf or un-presized append three calls deep reintroduces GC
// pressure invisibly. This analyzer walks the call graph from every
// marked function and reports each allocation site it can reach.
//
// What counts as an allocation site (the deny side):
//
//   - &T{}, slice and map composite literals, make, new
//   - string<->[]byte / []rune conversions and rune->string conversions
//     (except string(b) used directly as an operand of == or != — the
//     compiler compares without materializing the string)
//   - string concatenation (+ on strings)
//   - append whose destination does not chase back to a parameter,
//     method receiver, or sync.Pool-derived local (appends into
//     caller-provided or pooled storage are amortized by the caller;
//     anything else grows a fresh heap slice)
//   - closures that capture variables and escape (passed as arguments,
//     returned, deferred, stored) — non-escaping closures assigned to
//     locals stay on the stack and are fine, and their bodies are
//     scanned as part of the enclosing function
//   - go statements (a goroutine is an allocation, and hot paths must
//     not spawn)
//   - calls into a deny-list of allocating stdlib helpers (fmt.*,
//     sort.Slice/SliceStable — they box their arguments — strings and
//     strconv formatters, errors.New)
//   - calls through function-typed parameters and through interfaces
//     with no module implementers: they cannot be proven
//
// Other external calls are trusted (math, slices.SortFunc, pool
// Get/Put with pointer-shaped values — pointer-shaped interface boxing
// is allocation-free). Map writes and non-call interface boxing are
// documented blind spots; the deny-list covers the offenders that have
// actually appeared in review.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "Functions marked //lint:hotpath (the zero-allocation query-serving path: " +
		"compiled scoring, tokenization, scored search, the rank-flight lookup) must not " +
		"allocate, directly or through any module function they call. Composite literals, " +
		"conversions that copy, un-presized appends, escaping closures, fmt, and " +
		"goroutine spawns are reported with the hot root that reaches them.",
	Run: runAllocFree,
}

func runAllocFree(pass *Pass) error {
	if pass.Prog == nil {
		return fmt.Errorf("allocfree requires program information")
	}
	reach := pass.Prog.hotReachable()
	for _, fi := range pass.Prog.Funcs() {
		if fi.Pkg.Types != pass.Pkg {
			continue
		}
		root, ok := reach[fi]
		if !ok {
			continue
		}
		for _, site := range allocSites(pass.Prog, fi) {
			suffix := ""
			if root != fi.Obj.Name() {
				suffix = fmt.Sprintf(" (in %s, reached from //lint:hotpath %s)", fi.Obj.Name(), root)
			}
			pass.Reportf(site.pos, "hot path must not allocate: %s%s", site.what, suffix)
		}
	}
	return nil
}

// hotReachable returns every module function reachable from a
// //lint:hotpath marker, mapped to the root's name for diagnostics.
// Interface calls follow every module implementer (CHA).
func (p *Program) hotReachable() map[*FuncInfo]string {
	if p.hotReach != nil {
		return p.hotReach
	}
	p.hotReach = make(map[*FuncInfo]string)
	var visit func(fi *FuncInfo, root string)
	visit = func(fi *FuncInfo, root string) {
		if _, seen := p.hotReach[fi]; seen {
			return
		}
		p.hotReach[fi] = root
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee, iface := staticCallee(fi.Pkg.Info, call)
			if callee == nil {
				return true
			}
			if iface {
				for _, impl := range p.implementers(callee) {
					visit(impl, root)
				}
				return true
			}
			if target := p.funcs[callee]; target != nil {
				visit(target, root)
			}
			return true
		})
	}
	for _, fi := range p.ordered {
		if fi.Hotpath {
			visit(fi, fi.Obj.Name())
		}
	}
	return p.hotReach
}

type allocSite struct {
	pos  token.Pos
	what string
}

// allocSites scans one function body (including nested closures — their
// code runs on behalf of this function) for allocation sites.
func allocSites(p *Program, fi *FuncInfo) []allocSite {
	info := fi.Pkg.Info
	paramLike := paramLikeObjects(fi)
	var sites []allocSite
	add := func(pos token.Pos, format string, args ...any) {
		sites = append(sites, allocSite{pos: pos, what: fmt.Sprintf(format, args...)})
	}
	// Composite literals under & are reported once, at the &.
	addressed := make(map[*ast.CompositeLit]bool)
	// Closures in non-escaping positions (assigned to plain locals,
	// immediately invoked) are exempt from the capture rule.
	safeLit := make(map[*ast.FuncLit]bool)
	// string([]byte) conversions compared directly against a string do
	// not allocate: the compiler elides the copy for `string(b) == s`.
	cmpElided := make(map[*ast.CallExpr]bool)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
					safeLit[lit] = true // bound to a variable; allocates only if that variable escapes, which the call-argument rule catches at the use
				}
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				safeLit[lit] = true // immediately invoked
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				for _, operand := range []ast.Expr{n.X, n.Y} {
					if call, ok := ast.Unparen(operand).(*ast.CallExpr); ok {
						if tv, ok := info.Types[call.Fun]; ok && tv.IsType() &&
							isStringType(tv.Type) && len(call.Args) == 1 &&
							byteOrRuneSlice(info.TypeOf(call.Args[0])) {
							cmpElided[call] = true
						}
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					addressed[lit] = true
					add(n.Pos(), "&%s{} composite literal escapes to the heap", typeLabel(info, lit))
				}
			}
		case *ast.CompositeLit:
			if addressed[n] {
				return true
			}
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				add(n.Pos(), "slice literal allocates")
			case *types.Map:
				add(n.Pos(), "map literal allocates")
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement spawns a goroutine")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				add(n.Pos(), "string concatenation allocates")
			}
		case *ast.FuncLit:
			if !safeLit[n] && len(capturedVars(info, n)) > 0 {
				add(n.Pos(), "escaping closure captures variables on the heap")
			}
		case *ast.CallExpr:
			classifyCall(p, fi, n, paramLike, cmpElided, add)
		}
		return true
	})
	return sites
}

func classifyCall(p *Program, fi *FuncInfo, call *ast.CallExpr, paramLike map[types.Object]bool, cmpElided map[*ast.CallExpr]bool, add func(token.Pos, string, ...any)) {
	info := fi.Pkg.Info
	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, info.TypeOf(call.Args[0])
		if conversionCopies(dst, src) && !cmpElided[call] {
			add(call.Pos(), "%s conversion copies its operand", conversionLabel(dst, src))
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 && !rootedInParamLike(info, call.Args[0], paramLike) {
					add(call.Pos(), "append destination is not caller-provided or pooled storage; growth allocates")
				}
			}
			return
		}
	}
	callee, iface := staticCallee(info, call)
	if callee == nil {
		// A call through a function value. Locally-bound closures were
		// scanned above; function-typed parameters are unknowable.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if v, isVar := info.Uses[id].(*types.Var); isVar && isParamOf(fi, v) {
				add(call.Pos(), "call through function-typed parameter %s cannot be proven allocation-free", id.Name)
			}
		}
		return
	}
	if iface {
		if len(p.implementers(callee)) == 0 {
			add(call.Pos(), "interface call %s.%s has no module implementers and cannot be proven allocation-free",
				calleeRecvLabel(callee), callee.Name())
		}
		return // module implementers are scanned by hotReachable
	}
	if _, isModule := p.funcs[callee]; isModule {
		return // its own sites are reported in its own package
	}
	pkg, recv, name := calleeName(callee)
	switch pkg {
	case "fmt":
		add(call.Pos(), "fmt.%s allocates (formats into fresh storage and boxes arguments)", name)
	case "sort":
		if name == "Slice" || name == "SliceStable" || name == "Sort" || name == "Stable" {
			add(call.Pos(), "sort.%s boxes its argument in an interface; use slices.SortFunc", name)
		}
	case "strings":
		switch name {
		case "ToLower", "ToUpper", "Join", "Split", "Fields", "Repeat", "Map", "Replace", "ReplaceAll", "Title", "Clone":
			add(call.Pos(), "strings.%s allocates a new string", name)
		}
	case "strconv":
		switch name {
		case "Itoa", "Quote", "FormatInt", "FormatUint", "FormatFloat", "FormatBool":
			add(call.Pos(), "strconv.%s allocates a new string", name)
		}
	case "errors":
		if name == "New" {
			add(call.Pos(), "errors.New allocates")
		}
	}
	_ = recv
}

// calleeRecvLabel names an interface method's receiver type for
// diagnostics.
func calleeRecvLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefType(sig.Recv().Type()).(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	return "interface"
}

func typeLabel(info *types.Info, lit *ast.CompositeLit) string {
	if t := info.TypeOf(lit); t != nil {
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name()
		}
		return t.String()
	}
	return "T"
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// conversionCopies reports whether a conversion allocates: string <->
// []byte/[]rune in either direction, and rune -> string.
func conversionCopies(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	dstStr, srcStr := isStringType(dst), isStringType(src)
	if dstStr && byteOrRuneSlice(src) {
		return true
	}
	if srcStr && byteOrRuneSlice(dst) {
		return true
	}
	if dstStr && !srcStr {
		if b, ok := src.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return true // rune/int -> string
		}
	}
	return false
}

func byteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func conversionLabel(dst, src types.Type) string {
	return fmt.Sprintf("%s(%s)", types.TypeString(dst, nil), types.TypeString(src, nil))
}

// paramLikeObjects seeds the set of variables whose backing storage the
// caller (or a pool) owns: parameters, receivers, named results, and
// locals derived from sync.Pool Get calls — then propagates through
// simple local assignments (v := p, v = p.field) so appends into views of
// caller storage stay allowed.
func paramLikeObjects(fi *FuncInfo) map[types.Object]bool {
	info := fi.Pkg.Info
	out := make(map[types.Object]bool)
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	addField(fi.Decl.Recv)
	addField(fi.Decl.Type.Params)
	addField(fi.Decl.Type.Results)

	// Two passes so chains (scr := pool.Get(...); hits := scr.hits)
	// settle; deeper chains are rare enough not to matter.
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				rhs := ast.Unparen(as.Rhs[i])
				if isPoolGet(info, rhs) || rootedInParamLike(info, rhs, out) {
					if obj := info.Defs[id]; obj != nil {
						out[obj] = true
					} else if obj := info.Uses[id]; obj != nil {
						out[obj] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// isPoolGet matches expr shapes rooted in a (*sync.Pool).Get call:
// pool.Get(), pool.Get().(*T).
func isPoolGet(info *types.Info, expr ast.Expr) bool {
	if ta, ok := expr.(*ast.TypeAssertExpr); ok {
		expr = ta.X
	}
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, _ := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync" && fn.Name() == "Get"
}

// rootedInParamLike chases an expression to its root identifier through
// selectors, indexing, slicing, derefs, and nested appends.
func rootedInParamLike(info *types.Info, expr ast.Expr, paramLike map[types.Object]bool) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			return obj != nil && paramLike[obj]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.CallExpr:
			// append(append(dst, ...), ...): chase the inner destination.
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
					expr = e.Args[0]
					continue
				}
			}
			return false
		default:
			return false
		}
	}
}

// capturedVars lists variables a closure references that are declared in
// an enclosing function scope (not its own parameters or locals, not
// package level).
func capturedVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// Declared outside the literal but not at package scope.
		if v.Pos() != token.NoPos && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) &&
			v.Parent() != nil && v.Parent().Parent() != types.Universe {
			if !isPackageLevel(v) {
				seen[v] = true
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isParamOf reports whether v is one of fi's declared parameters.
func isParamOf(fi *FuncInfo, v *types.Var) bool {
	if fi.Decl.Type.Params == nil {
		return false
	}
	for _, f := range fi.Decl.Type.Params.List {
		for _, name := range f.Names {
			if fi.Pkg.Info.Defs[name] == v {
				return true
			}
		}
	}
	return false
}
