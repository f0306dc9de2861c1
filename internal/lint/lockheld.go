package lint

// lockheld enforces the two lock disciplines the serving path depends
// on: a mutex acquired on some path through a function must be released
// (or deferred-released) on every path that reaches a return, and no
// blocking operation — file or network I/O, sleeps, channel operations,
// any module function that transitively performs one — may run while a
// mutex is held. The second rule is what keeps the service's two locks
// cheap. Its read path takes one, the compile lock, on the first rank
// after a model change, and every rank then waiting stalls behind
// whatever runs under it. Its write path holds the registry lock while it
// publishes a new served set, and Register, Sample, Unregister and
// Databases stall behind whatever runs there. One `store.Put` slipped
// under either breaks that for every caller behind it.
//
// The analysis is a forward dataflow over the CFG. The fact is the set
// of held locks (identified by the access path of the mutex expression:
// "s.mu", "e.runMu"; RLock and Lock of an RWMutex are tracked as
// distinct locks), merged by union at confluences — so "held on some
// path" is enough to flag a blocking call, and a lock still held at the
// exit block without a pending deferred unlock is flagged at its
// acquisition. Deferred unlocks keep the lock in the fact (blocking
// calls after `defer mu.Unlock()` still run under the lock) but satisfy
// the release-on-all-paths obligation. Panic paths terminate blocks
// without reaching exit, so a deliberate `panic` under a deferred
// unlock is not a false positive.
//
// Every function literal is checked as a function of its own — a
// goroutine body, a deferred closure, a closure a constructor returns —
// with no lock held on entry: its locks follow the discipline inside it,
// and the enclosing function reads it only for deferred unlocks.
//
// Known imprecision, by construction: the fact is path-insensitive, so
// conditionally acquired locks ("if ok { mu.Lock() }") appear held on
// the merged path; calls through function values are assumed
// non-blocking. Violations that are the design (netsearch's
// client mutex IS the wire-serialization mechanism) carry
// //lint:ignore directives with the rationale.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "A mutex acquired on some control-flow path must be released on all paths " +
		"reaching a return, and no blocking operation (file/network I/O, sleeps, channel " +
		"sends/receives, selects without default, or module calls that transitively block) " +
		"may execute while any mutex is held.",
	Run: runLockHeld,
}

// lockState is the per-lock fact.
type lockState struct {
	deferred bool      // a defer will release it at return
	pos      token.Pos // earliest acquisition site (for exit diagnostics)
	display  string    // source-ish spelling, "s.mu"
	read     bool      // RLock rather than Lock
}

type lockFact map[string]lockState

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func mergeLocks(a, b lockFact) lockFact {
	out := a.clone()
	for k, bv := range b {
		av, ok := out[k]
		if !ok {
			out[k] = bv
			continue
		}
		// Held on both paths: the obligation survives unless both paths
		// deferred the release; keep the earliest acquisition.
		av.deferred = av.deferred && bv.deferred
		if bv.pos < av.pos {
			av.pos = bv.pos
		}
		out[k] = av
	}
	return out
}

func equalLocks(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av.deferred != bv.deferred || av.pos != bv.pos {
			return false
		}
	}
	return true
}

func runLockHeld(pass *Pass) error {
	if pass.Prog == nil {
		return fmt.Errorf("lockheld requires program information")
	}
	// Every function body, declared or literal, gets its own check: the
	// enclosing function's facts do not flow into a literal, which runs
	// when it is called or started, not where it is written.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkLockHeldBody(pass, n.Body)
				}
			case *ast.FuncLit:
				checkLockHeldBody(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func checkLockHeldBody(pass *Pass, body *ast.BlockStmt) {
	g := BuildCFG(body, pass.Info)
	transfer := func(b *Block, in lockFact) lockFact {
		fact := in.clone()
		for _, n := range b.Nodes {
			fact = lockTransferNode(pass, n, fact, false)
		}
		return fact
	}
	ins := Forward(g, lockFact{}, transfer, mergeLocks, equalLocks)

	// Reporting sweep: re-apply the transfer with diagnostics enabled.
	for _, b := range g.Blocks {
		in, reachable := ins[b]
		if !reachable {
			continue
		}
		fact := in.clone()
		for _, n := range b.Nodes {
			fact = lockTransferNode(pass, n, fact, true)
		}
	}
	// Exit obligation: anything still held without a deferred release.
	// Run() sorts diagnostics by position, so key order only needs to be
	// deterministic, not meaningful.
	if exitFact, ok := ins[g.Exit]; ok {
		keys := make([]string, 0, len(exitFact))
		for k := range exitFact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			st := exitFact[k]
			if !st.deferred {
				pass.Reportf(st.pos, "%s is acquired here but not released on every path to return", st.display)
			}
		}
	}
}

// lockTransferNode applies one CFG node's lock events to the fact.
// When report is true, blocking operations under a held lock are
// diagnosed.
func lockTransferNode(pass *Pass, node ast.Node, fact lockFact, report bool) lockFact {
	heldNames := func() string {
		best := lockState{pos: token.Pos(1 << 30)}
		for _, st := range fact {
			if st.pos < best.pos {
				best = st
			}
		}
		return best.display
	}
	blockHere := func(pos token.Pos, what string) {
		if report && len(fact) > 0 {
			pass.Reportf(pos, "%s while holding %s", what, heldNames())
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // runs elsewhere (goroutine) or only when called
		case *ast.DeferStmt:
			// A deferred unlock discharges the release obligation; the
			// deferred call itself runs at return, not here.
			for key, st := range deferredUnlocks(pass, n) {
				if cur, ok := fact[key]; ok {
					cur.deferred = true
					fact[key] = cur
				} else {
					_ = st
				}
			}
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				blockHere(n.Pos(), "select without default")
			}
			return false // clause bodies live in their own blocks
		case *ast.RangeStmt:
			if isChanType(pass, n.X) {
				blockHere(n.Pos(), "range over channel")
			}
			ast.Inspect(n.X, walk)
			return false // body lives in its own blocks
		case *ast.SendStmt:
			blockHere(n.Arrow, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blockHere(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if key, st, op, ok := lockOp(pass, n); ok {
				switch op {
				case "Lock", "RLock":
					if _, already := fact[key]; !already {
						fact[key] = st
					}
				case "Unlock", "RUnlock":
					delete(fact, key)
				}
				return true // still scan arguments (rare, e.g. mu.Lock() has none)
			}
			callee, iface := staticCallee(pass.Info, n)
			if callee != nil {
				blocking := false
				if iface {
					impls := pass.Prog.implementers(callee)
					for _, impl := range impls {
						if pass.Prog.MayBlock(impl.Obj) {
							blocking = true
						}
					}
					if len(impls) == 0 {
						blocking = blockingExternal(callee)
					}
				} else {
					blocking = pass.Prog.MayBlock(callee)
				}
				if blocking {
					blockHere(n.Pos(), fmt.Sprintf("call to %s (may block)", callee.Name()))
				}
			}
		}
		return true
	}
	ast.Inspect(node, walk)
	return fact
}

// lockOp recognizes m.Lock()/Unlock()/RLock()/RUnlock() where the method
// belongs to sync.Mutex or sync.RWMutex (including embedded promotion)
// and returns the canonical lock key plus initial state.
func lockOp(pass *Pass, call *ast.CallExpr) (key string, st lockState, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", lockState{}, "", false
	}
	fn, _ := staticCallee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", lockState{}, "", false
	}
	pkg, recv, name := calleeName(fn)
	_ = pkg
	if recv != "Mutex" && recv != "RWMutex" {
		return "", lockState{}, "", false
	}
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", lockState{}, "", false
	}
	path, display, okPath := lockPathOf(pass, sel.X)
	if !okPath {
		return "", lockState{}, "", false
	}
	read := name == "RLock" || name == "RUnlock"
	if read {
		path += "/R"
		display += " (read lock)"
	}
	return path, lockState{pos: call.Pos(), display: display, read: read}, name, true
}

// lockPathOf canonicalizes the mutex expression to an access path rooted
// at a named object: "s.mu" -> "<obj s>.mu". Locks reached through
// indexing or calls are not tracked (no stable identity).
func lockPathOf(pass *Pass, expr ast.Expr) (key, display string, ok bool) {
	var fields []string
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[e]
			if obj == nil {
				obj = pass.Info.Defs[e]
			}
			if obj == nil {
				return "", "", false
			}
			key = fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
			display = e.Name
			for i := len(fields) - 1; i >= 0; i-- {
				key += "." + fields[i]
				display += "." + fields[i]
			}
			return key, display, true
		case *ast.SelectorExpr:
			fields = append(fields, e.Sel.Name)
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return "", "", false
		}
	}
}

// deferredUnlocks extracts the lock keys a defer statement will release:
// `defer mu.Unlock()` directly, or unlock calls inside a deferred
// closure.
func deferredUnlocks(pass *Pass, d *ast.DeferStmt) map[string]lockState {
	out := make(map[string]lockState)
	record := func(call *ast.CallExpr) {
		if key, st, op, ok := lockOp(pass, call); ok && (op == "Unlock" || op == "RUnlock") {
			out[key] = st
		}
	}
	record(d.Call)
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				record(call)
			}
			return true
		})
	}
	return out
}

func isChanType(pass *Pass, expr ast.Expr) bool {
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
