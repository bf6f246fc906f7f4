// Package cfg builds intraprocedural control-flow graphs over go/ast,
// the substrate for ddclint's all-paths analyzer (spanbalance). It is
// stdlib-only — a deliberately small stand-in for
// golang.org/x/tools/go/cfg, which this zero-dependency module does not
// vendor.
//
// A Graph has one basic block per straight-line statement run, plus two
// distinguished empty blocks: Exit collects every normal exit (each
// return statement and falling off the end of the body) and Panic
// collects explicit panic(...) calls. Branches, loops (with labeled
// break/continue), switch/type-switch/select, goto, and fallthrough all
// contribute edges. Defer statements are ordinary block nodes: a defer
// runs at every exit downstream of its registration point, which is
// exactly how path-sensitive analyzers must treat it, so the builder
// leaves them in place rather than splicing them before Exit.
//
// Blocks carry ast.Nodes in evaluation order: leaf statements appear
// whole, and for structured statements only the sub-expressions
// evaluated in that block appear (an if condition, a range operand, a
// switch tag). Nested function literals are separate functions — their
// bodies are NOT flattened into the enclosing graph; analyzers build a
// Graph per FuncDecl and per FuncLit.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Block is one basic block.
type Block struct {
	Index int
	// Kind labels the block's syntactic role for debugging and tests:
	// "entry", "exit", "panic", "if.then", "for.body", "range.body",
	// "case", "label.X", ...
	Kind string
	// Nodes are the statements and evaluated sub-expressions of the
	// block, in execution order.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// String renders "b3 if.then -> b4 b7" for tests and debugging.
func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "b%d %s ->", b.Index, b.Kind)
	for _, s := range b.Succs {
		fmt.Fprintf(&sb, " b%d", s.Index)
	}
	return sb.String()
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Blocks []*Block // Blocks[0] is Entry; Exit and Panic are members too
	Entry  *Block
	Exit   *Block // every return edge and the fall-off-the-end edge
	Panic  *Block // explicit panic(...) edges
}

// New builds the graph of one function body. A nil body (a declaration
// without a definition) yields a trivial Entry→Exit graph.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{}
	g := &Graph{}
	b.g = g
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	g.Panic = b.newBlock("panic")
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body is a normal exit.
	b.jump(g.Exit)
	b.resolveGotos()
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

// builder holds the under-construction graph and the control context.
type builder struct {
	g   *Graph
	cur *Block // nil while the next statement is unreachable

	// loops and switches stack for break/continue resolution.
	targets []target

	labels  map[string]*Block   // label name → jump target block
	gotos   map[string][]*Block // unresolved goto sources per label
	pending string              // label attached to the next loop/switch
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label string
	brk   *Block // break destination (nil on none)
	cont  *Block // continue destination (nil for switch/select)
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// block returns the current block, starting a fresh unreachable one
// after a terminator so trailing dead statements still get parsed nodes.
func (b *builder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

// jump terminates the current block with an edge to dst.
func (b *builder) jump(dst *Block) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, dst)
	b.cur = nil
}

// branch adds an edge to dst without terminating the block's construction
// (used for multi-way successors built in sequence).
func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for a labeled loop/switch.
func (b *builder) takeLabel() string {
	l := b.pending
	b.pending = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is a join point: goto and labeled continue/break
		// resolve through it.
		lb := b.newBlock("label." + s.Label.Name)
		b.jump(lb)
		b.cur = lb
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = lb
		b.pending = s.Label.Name
		b.stmt(s.Stmt)
		b.pending = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		head := b.block()
		join := b.newBlock("if.join")
		then := b.newBlock("if.then")
		b.edge(head, then)
		b.cur = then
		b.stmtList(s.Body.List)
		b.jump(join)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(head, els)
			b.cur = els
			b.stmt(s.Else)
			b.jump(join)
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		exit := b.newBlock("for.exit")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, exit)
		}
		b.edge(head, body)
		b.cur = body
		b.targets = append(b.targets, target{label: label, brk: exit, cont: post})
		b.stmtList(s.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		b.jump(post)
		if s.Post != nil {
			b.cur = post
			b.add(s.Post)
			b.jump(head)
		}
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		exit := b.newBlock("range.exit")
		b.jump(head)
		// The per-iteration key/value assignment happens in the head.
		if s.Key != nil {
			head.Nodes = append(head.Nodes, s.Key)
		}
		if s.Value != nil {
			head.Nodes = append(head.Nodes, s.Value)
		}
		b.edge(head, body)
		b.edge(head, exit)
		b.cur = body
		b.targets = append(b.targets, target{label: label, brk: exit, cont: head})
		b.stmtList(s.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		b.jump(head)
		b.cur = exit

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, "case")

	case *ast.TypeSwitchStmt:
		// The guard (`v := x.(type)`) is evaluated once in the head.
		b.switchStmt(s.Init, s.Assign, s.Body, "typecase")

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.block()
		join := b.newBlock("select.join")
		b.targets = append(b.targets, target{label: label, brk: join})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock("comm")
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(join)
		}
		b.targets = b.targets[:len(b.targets)-1]
		if len(s.Body.List) == 0 {
			b.edge(head, join) // empty select blocks forever; keep the graph connected
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			b.jump(b.g.Panic)
		}

	default:
		// Leaf statements: declarations, assignments, send, inc/dec,
		// defer, go, empty.
		b.add(s)
	}
}

// switchStmt builds expression and type switches: head → each case body
// → join, with fallthrough chaining case bodies and a default case
// absorbing the head's fall-through edge.
func (b *builder) switchStmt(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, kind string) {
	label := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.block()
	join := b.newBlock("switch.join")
	b.targets = append(b.targets, target{label: label, brk: join})

	// Build every clause block first so fallthrough can reach its
	// successor clause.
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	blocks := make([]*Block, 0, len(body.List))
	hasDefault := false
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		clauses = append(clauses, cc)
		blk := b.newBlock(kind)
		blocks = append(blocks, blk)
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, cc := range clauses {
		b.edge(head, blocks[i])
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fall := false
		for j, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" && j == len(cc.Body)-1 {
				fall = true
				break
			}
			b.stmt(st)
		}
		if fall && i+1 < len(blocks) {
			b.jump(blocks[i+1])
		} else {
			b.jump(join)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	if !hasDefault {
		b.edge(head, join)
	}
	b.cur = join
}

// branchStmt wires break/continue/goto edges.
func (b *builder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.brk != nil && (label == "" || t.label == label) {
				b.add(s)
				b.jump(t.brk)
				return
			}
		}
	case "continue":
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.cont != nil && (label == "" || t.label == label) {
				b.add(s)
				b.jump(t.cont)
				return
			}
		}
	case "goto":
		b.add(s)
		src := b.cur
		b.cur = nil
		if src != nil {
			if b.gotos == nil {
				b.gotos = make(map[string][]*Block)
			}
			b.gotos[label] = append(b.gotos[label], src)
		}
		return
	}
	// fallthrough is handled by switchStmt; an unmatched break/continue
	// (malformed code) degrades to a plain node.
	b.add(s)
}

// resolveGotos patches goto edges once every label block exists.
func (b *builder) resolveGotos() {
	for label, srcs := range b.gotos {
		dst := b.labels[label]
		if dst == nil {
			dst = b.g.Exit // malformed; keep the graph connected
		}
		for _, src := range srcs {
			b.edge(src, dst)
		}
	}
}

// isPanic reports whether e is a call to the panic builtin.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
