package lint

// Program is the whole-module view the interprocedural analyzer, lockheld,
// works on: a lightweight call graph over every loaded package, resolved
// from syntax and go/types alone. Static calls (package functions, methods on
// concrete receivers) resolve exactly; calls through module-local
// interfaces resolve by class-hierarchy analysis (every concrete type in
// the loaded packages whose method set implements the interface is a
// possible callee); calls through function values and through interfaces
// defined outside the module fall back to documented name heuristics
// (MayBlock).
//
// Run builds one Program per invocation covering every package it was
// given, so linting ./... analyzes the real module-wide graph while
// fixture tests see a single-package world.

import (
	"go/ast"
	"go/types"
)

// A FuncInfo is one function or method declared in a loaded package.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Program indexes every loaded package for interprocedural queries.
type Program struct {
	Packages []*Package

	funcs   map[*types.Func]*FuncInfo
	ordered []*FuncInfo // declaration order, for deterministic iteration
	// methodsByName supports CHA: every concrete method in the module,
	// keyed by name.
	methodsByName map[string][]*FuncInfo

	blockMemo map[*types.Func]bool
}

// NewProgram indexes pkgs. Packages that failed to type-check contribute
// whatever partial information they have.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Packages:      pkgs,
		funcs:         make(map[*types.Func]*FuncInfo),
		methodsByName: make(map[string][]*FuncInfo),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				p.funcs[obj] = fi
				p.ordered = append(p.ordered, fi)
				if fd.Recv != nil {
					p.methodsByName[fd.Name.Name] = append(p.methodsByName[fd.Name.Name], fi)
				}
			}
		}
	}
	return p
}

// FuncOf returns the FuncInfo for a function object declared in a loaded
// package, or nil for external functions.
func (p *Program) FuncOf(obj *types.Func) *FuncInfo {
	if obj == nil {
		return nil
	}
	return p.funcs[obj]
}

// Funcs returns every declared function in deterministic order.
func (p *Program) Funcs() []*FuncInfo { return p.ordered }

// staticCallee resolves a call expression to the function object it
// invokes, when that is statically known: package functions, methods on
// concrete receivers, and qualified imports. Interface method calls
// return the interface's method object with iface=true; calls through
// function values return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) (fn *types.Func, iface bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn, false
	case *ast.SelectorExpr:
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil, false
		}
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return fn, true
			}
		}
		return fn, false
	}
	return nil, false
}

// implementers returns every module-declared concrete method that an
// interface method call could dispatch to: methods with the callee's
// name whose receiver type satisfies the interface.
func (p *Program) implementers(ifaceMethod *types.Func) []*FuncInfo {
	sig, ok := ifaceMethod.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncInfo
	for _, m := range p.methodsByName[ifaceMethod.Name()] {
		msig, ok := m.Obj.Type().(*types.Signature)
		if !ok || msig.Recv() == nil {
			continue
		}
		recv := msig.Recv().Type()
		// Methods on T satisfy interfaces through both T and *T.
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(derefType(recv)), iface) {
			out = append(out, m)
		}
	}
	return out
}

func derefType(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// calleeName splits a function object into (package path, receiver type
// name, function name) for pattern tables. Receiver is "" for package
// functions; pointer receivers are stripped.
func calleeName(fn *types.Func) (pkg, recv, name string) {
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name = fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := derefType(sig.Recv().Type())
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
		} else if _, ok := t.(*types.Interface); ok {
			recv = "interface"
		}
	}
	return pkg, recv, name
}

// blockingExternal reports whether a call to an external (non-module)
// function can block: file and network I/O, sleeps, stream
// encoders/decoders writing to connections, and synchronization waits.
// The table is a deny-list — unknown external calls are assumed
// non-blocking, which keeps lockheld quiet about pure computation; the
// entries cover every blocking primitive the module touches.
func blockingExternal(fn *types.Func) bool {
	pkg, recv, name := calleeName(fn)
	switch pkg {
	case "os":
		if recv == "File" {
			switch name {
			case "Read", "ReadAt", "ReadFrom", "Write", "WriteAt", "WriteString", "Sync", "Close", "Truncate":
				return true
			}
			return false
		}
		switch name {
		case "Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile",
			"ReadDir", "Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "MkdirTemp":
			return true
		}
	case "net":
		switch name {
		case "Dial", "DialTimeout", "Listen", "Accept", "Read", "Write", "Close":
			return true
		}
	case "time":
		return name == "Sleep"
	case "encoding/json":
		return (recv == "Encoder" && name == "Encode") || (recv == "Decoder" && name == "Decode")
	case "encoding/gob":
		return (recv == "Encoder" && name == "Encode") || (recv == "Decoder" && name == "Decode")
	case "bufio":
		switch name {
		case "Read", "ReadByte", "ReadBytes", "ReadString", "ReadRune",
			"Write", "WriteByte", "WriteString", "WriteRune", "Flush", "Scan":
			return true
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "ReadAtLeast", "WriteString":
			return true
		}
	case "sync":
		return name == "Wait" // WaitGroup.Wait, Cond.Wait
	case "net/http":
		switch name {
		case "Get", "Post", "PostForm", "Head", "Do", "ListenAndServe", "Serve":
			return true
		}
	}
	// Interface methods declared outside the module (io.Reader, net.Conn,
	// io.Closer): CHA cannot see their implementers, so recognize the
	// universal blocking verbs by name.
	if recv == "interface" || (recv != "" && fn.Pkg() != nil && isExternalIfaceMethod(fn)) {
		switch name {
		case "Read", "Write", "Close", "Flush", "Sync", "Accept":
			return true
		}
	}
	return false
}

func isExternalIfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// MayBlock reports whether calling fn can block: it performs a blocking
// operation itself (channel send/receive, select without default, calls
// into the blockingExternal table) or transitively calls a module
// function that does. Calls through function values are assumed
// non-blocking (documented policy — the module passes only pure
// functions as values on lock-holding paths).
func (p *Program) MayBlock(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if p.blockMemo == nil {
		p.computeMayBlock()
	}
	if v, ok := p.blockMemo[fn]; ok {
		return v
	}
	return blockingExternal(fn)
}

// computeMayBlock runs the transitive propagation to fixpoint over every
// module function.
func (p *Program) computeMayBlock() {
	p.blockMemo = make(map[*types.Func]bool, len(p.ordered))
	// callers[f] = module functions that call f, for propagation.
	callers := make(map[*types.Func][]*types.Func)
	var work []*types.Func

	for _, fi := range p.ordered {
		local := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if local {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				// A nested closure blocks only when called; its calls are
				// attributed where the closure runs, which we cannot track —
				// skip its body (documented limit).
				return false
			case *ast.GoStmt:
				// Spawning does not block the spawner; skip the call.
				return false
			case *ast.SendStmt:
				local = true
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					local = true
				}
			case *ast.SelectStmt:
				if !selectHasDefault(n) {
					local = true
				}
			case *ast.RangeStmt:
				if tv, ok := fi.Pkg.Info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						local = true
					}
				}
			case *ast.CallExpr:
				callee, iface := staticCallee(fi.Pkg.Info, n)
				if callee == nil {
					return true
				}
				if iface {
					impls := p.implementers(callee)
					for _, impl := range impls {
						callers[impl.Obj] = append(callers[impl.Obj], fi.Obj)
					}
					if len(impls) == 0 && blockingExternal(callee) {
						local = true
					}
					return true
				}
				if _, isModule := p.funcs[callee]; isModule {
					callers[callee] = append(callers[callee], fi.Obj)
				} else if blockingExternal(callee) {
					local = true
				}
			}
			return true
		})
		p.blockMemo[fi.Obj] = local
		if local {
			work = append(work, fi.Obj)
		}
	}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[fn] {
			if !p.blockMemo[caller] {
				p.blockMemo[caller] = true
				work = append(work, caller)
			}
		}
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
