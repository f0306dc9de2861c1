package lint

// Intraprocedural control-flow graphs over go/ast function bodies: the
// substrate the flow-sensitive analyzer (lockheld) runs on. A
// per-statement AST walk cannot answer "is this mutex released on every
// path?" — that is a property of paths, not statements. BuildCFG lowers a
// body to basic blocks with explicit successor edges; dataflow.go
// provides the forward fixpoint solver that runs over them.
//
// The construction is deliberately modest: blocks hold the original
// ast.Node statements in execution order (condition and range expressions
// are attached to the loop-head blocks that evaluate them), and control
// constructs are lowered structurally — if/else, for/range, switch and
// type switch with fallthrough, select (one successor per communication
// clause), labeled break/continue, and goto. A return edges to the
// synthetic Exit block; a call that provably never returns (the builtin
// panic, os.Exit, runtime.Goexit) terminates its block with no
// successors, so panic paths are not reported as "lock never released" —
// the runtime unwinds them through the deferred calls.

import (
	"go/ast"
	"go/types"
)

// Block is one basic block: a maximal sequence of statements with a
// single entry point and explicit successors.
type Block struct {
	// Index is the block's position in CFG.Blocks (construction order;
	// entry is 0). It gives analyses a stable iteration order.
	Index int
	// Nodes are the statements (and loop-head expressions) the block
	// executes, in order.
	Nodes []ast.Node
	// Succs are the blocks control may transfer to next. Empty for the
	// Exit block and for blocks terminated by a never-returning call.
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks holds every block, entry first. Unreachable blocks (code
	// after return, empty loop-afters) may appear; they simply receive no
	// dataflow facts.
	Blocks []*Block
	// Exit is the synthetic normal-return block: every return statement
	// and the body's fall-off edge lead here. It holds no nodes.
	Exit *Block
}

// BuildCFG lowers a function body to basic blocks. info may be nil; it is
// used only to recognize never-returning calls (panic, os.Exit).
func BuildCFG(body *ast.BlockStmt, info *types.Info) *CFG {
	b := &cfgBuilder{info: info}
	b.graph = &CFG{}
	entry := b.newBlock()
	b.graph.Exit = b.newBlock()
	b.cur = entry
	b.stmtList(body.List)
	// Fall off the end of the body: an implicit return.
	b.jump(b.graph.Exit)
	b.resolveGotos()
	return b.graph
}

type loopFrame struct {
	label          string
	brk, cont      *Block
	isLoop         bool // break+continue valid (for/range); switch/select: break only
	nextCaseOfCase map[ast.Stmt]*Block
}

type cfgBuilder struct {
	info  *types.Info
	graph *CFG
	cur   *Block // nil when the current path has terminated
	loops []loopFrame

	labels      map[string]*Block   // label -> target block (for goto)
	gotoPatches map[string][]*Block // unresolved forward gotos
	// fallthroughTarget is the next case clause's block while lowering a
	// switch case body.
	fallthroughTarget *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.graph.Blocks)}
	b.graph.Blocks = append(b.graph.Blocks, blk)
	return blk
}

// jump adds an edge cur->to and terminates the current path.
func (b *cfgBuilder) jump(to *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, to)
	}
	b.cur = nil
}

// edge adds cur->to without terminating cur.
func (b *cfgBuilder) edge(to *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, to)
	}
}

// start begins a new block, linking from the current one when alive.
func (b *cfgBuilder) start(blk *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, blk)
	}
	b.cur = blk
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the name of the enclosing
// LabeledStmt when s is its direct statement (so labeled break/continue
// resolve).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	if b.cur == nil {
		// Unreachable code still gets blocks so its nodes exist for
		// position-based reporting, but nothing flows into them.
		b.cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.start(target)
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = target
		for _, from := range b.gotoPatches[s.Label.Name] {
			from.Succs = append(from.Succs, target)
		}
		delete(b.gotoPatches, s.Label.Name)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		thenB := b.newBlock()
		after := b.newBlock()
		b.edge(thenB)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(elseB)
			cond := b.cur
			b.cur = elseB
			b.stmt(s.Else, "")
			b.jump(after)
			b.cur = cond
		} else {
			b.edge(after)
		}
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.jump(after)
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			post.Succs = append(post.Succs, head)
		}
		b.start(head)
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(after)
		}
		b.edge(body)
		b.cur = body
		b.pushLoop(loopFrame{label: label, brk: after, cont: post, isLoop: true})
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(post)
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.start(head)
		// The RangeStmt node itself carries X and the key/value
		// assignment; analyses see it in the head block.
		b.add(s)
		b.edge(after)
		b.edge(body)
		b.cur = body
		b.pushLoop(loopFrame{label: label, brk: after, cont: head, isLoop: true})
		b.stmtList(s.Body.List)
		b.popLoop()
		b.jump(head)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, label, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, label, nil)

	case *ast.SelectStmt:
		// The SelectStmt node sits in the dispatching block so blocking
		// analyses can see whether a default clause exists.
		b.add(s)
		after := b.newBlock()
		dispatch := b.cur
		terminated := true
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			clB := b.newBlock()
			if dispatch != nil {
				dispatch.Succs = append(dispatch.Succs, clB)
			}
			b.cur = clB
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.pushLoop(loopFrame{label: label, brk: after})
			b.stmtList(comm.Body)
			b.popLoop()
			if b.cur != nil {
				terminated = false
			}
			b.jump(after)
		}
		if len(s.Body.List) == 0 {
			terminated = false
			if dispatch != nil {
				dispatch.Succs = append(dispatch.Succs, after)
			}
		}
		_ = terminated
		b.cur = after

	case *ast.BranchStmt:
		b.add(s)
		b.branch(s)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.graph.Exit)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.neverReturns(call) {
			b.cur = nil // panic/os.Exit: path ends, not via Exit
		}

	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt,
		// EmptyStmt: straight-line nodes.
		b.add(s)
	}
}

// caseClauses lowers the shared switch/type-switch body shape, including
// fallthrough edges.
func (b *cfgBuilder) caseClauses(clauses []ast.Stmt, label string, _ *Block) {
	after := b.newBlock()
	dispatch := b.cur
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		blocks[i] = b.newBlock()
		if dispatch != nil {
			dispatch.Succs = append(dispatch.Succs, blocks[i])
		}
	}
	for i, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = blocks[i]
		var next *Block
		if i+1 < len(clauses) {
			next = blocks[i+1]
		}
		b.pushLoop(loopFrame{label: label, brk: after})
		b.fallthroughTarget = next
		b.stmtList(cc.Body)
		b.fallthroughTarget = nil
		b.popLoop()
		b.jump(after)
	}
	if !hasDefault && dispatch != nil {
		dispatch.Succs = append(dispatch.Succs, after)
	}
	b.cur = after
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.loops) - 1; i >= 0; i-- {
			fr := b.loops[i]
			if name == "" || fr.label == name {
				b.jump(fr.brk)
				return
			}
		}
		b.cur = nil
	case "continue":
		for i := len(b.loops) - 1; i >= 0; i-- {
			fr := b.loops[i]
			if fr.isLoop && (name == "" || fr.label == name) {
				b.jump(fr.cont)
				return
			}
		}
		b.cur = nil
	case "goto":
		if target, ok := b.labels[name]; ok {
			b.jump(target)
			return
		}
		if b.gotoPatches == nil {
			b.gotoPatches = make(map[string][]*Block)
		}
		if b.cur != nil {
			b.gotoPatches[name] = append(b.gotoPatches[name], b.cur)
		}
		b.cur = nil
	case "fallthrough":
		if b.fallthroughTarget != nil {
			b.jump(b.fallthroughTarget)
			return
		}
		b.cur = nil
	}
}

func (b *cfgBuilder) pushLoop(fr loopFrame) { b.loops = append(b.loops, fr) }
func (b *cfgBuilder) popLoop()              { b.loops = b.loops[:len(b.loops)-1] }

func (b *cfgBuilder) resolveGotos() {
	// Gotos to labels that never appear (broken code) are left without
	// edges; type-checking already reported the error.
	b.gotoPatches = nil
}

// neverReturns recognizes calls that terminate the goroutine: the builtin
// panic, os.Exit, log.Fatal*, runtime.Goexit.
func (b *cfgBuilder) neverReturns(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name != "panic" || b.info == nil {
			return false
		}
		_, isBuiltin := b.info.Uses[fun].(*types.Builtin)
		return isBuiltin
	case *ast.SelectorExpr:
		if b.info == nil {
			return false
		}
		fn, ok := b.info.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "runtime":
			return fn.Name() == "Goexit"
		case "log":
			return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
		}
	}
	return false
}
