// Control-flow graphs for flow-sensitive analysis. The AST/summary-based
// analyzers are path-blind: they can see that a function *may* close a
// connection but not that it does so *on every path*, or that an error is
// read before it is overwritten. This file adds the missing layer: a purely
// syntactic per-function CFG over go/ast — basic blocks linked by control
// edges, with if/for/range/switch/select, labeled break/continue, goto,
// panic exits and defer modeled — plus a generic forward-dataflow walker,
// exposed to analyzers through Pass.Flow.
//
// Design choices, in the order they matter to the analyzers built on top:
//
//   - Deferred calls run at function exit whatever path got there, so defer
//     statements are recorded where they execute AND their call expressions
//     are replayed (in LIFO order) as effects of the single synthetic Exit
//     block. A flow that reaches Exit therefore sees `defer c.Close()` as a
//     release even when the defer sits before an early return. This is
//     conservative in the sound direction for leak checking: a defer
//     registered only on some branch is treated as always running, which can
//     hide a leak but never invents one.
//   - Condition expressions live in the Nodes list of the block that
//     evaluates them, and that block records them in Cond with the branch
//     convention Succs[0]=true / Succs[1]=false. Analyzers use this for
//     cheap path-sensitivity on `v != nil` / `err == nil` guards.
//   - panic(...) is an edge straight to Exit (deferred calls still run on a
//     panicking path, which the Exit-effect model captures for free).
//     recover() needs no modeling beyond that: it only changes what happens
//     in the *caller*, not which blocks of this function execute.
//   - Unreachable code after return/break/goto lands in successor-less,
//     predecessor-less blocks; empty ones are pruned, non-empty ones are
//     kept so dumps make dead statements visible.
package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Block is one basic block: a straight-line run of statements (and the
// condition expressions evaluated at its end) with control edges out.
type Block struct {
	Index int
	// Kind names the construct that created the block (entry, exit,
	// if.then, for.body, select.case, label.retry, ...) for dumps and for
	// human-readable path traces.
	Kind string
	// Pos anchors the block in the source (the construct's position).
	Pos token.Pos
	// Nodes are the statements and condition expressions executed in this
	// block, in order. Exit holds the deferred calls in LIFO order.
	Nodes []ast.Node
	// Cond, when non-nil, is the branch condition: Succs[0] is taken when
	// it is true, Succs[1] when it is false.
	Cond  ast.Expr
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body. Entry and Exit are
// synthetic; every return, panic and fall-off-the-end reaches Exit.
type CFG struct {
	Name   string
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Defers lists deferred calls in registration order; Exit.Nodes holds
	// the same calls reversed (execution order).
	Defers []*ast.CallExpr
}

type loopTarget struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select targets (break only)
}

type cfgBuilder struct {
	cfg      *CFG
	cur      *Block
	targets  []loopTarget
	labels   map[string]*Block
	curLabel string
}

// BuildCFG constructs the CFG for a function body. It is purely syntactic:
// no type information is consulted, so it works identically on fixture
// modules and the real tree.
func BuildCFG(name string, body *ast.BlockStmt) *CFG {
	c := &CFG{Name: name}
	b := &cfgBuilder{cfg: c, labels: map[string]*Block{}}
	c.Entry = b.newBlock("entry", body.Pos())
	c.Exit = &Block{Kind: "exit", Pos: body.End()}
	b.cur = c.Entry
	b.stmtList(body.List)
	b.edge(b.cur, c.Exit)
	// The synthetic exit goes last so dumps read top-down.
	c.Exit.Index = len(c.Blocks)
	c.Blocks = append(c.Blocks, c.Exit)
	// Deferred calls execute on every path out, in LIFO order.
	for i := len(c.Defers) - 1; i >= 0; i-- {
		c.Exit.Nodes = append(c.Exit.Nodes, c.Defers[i])
	}
	c.prune()
	return c
}

func (b *cfgBuilder) newBlock(kind string, pos token.Pos) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind, Pos: pos}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// deadEnd parks the builder on a fresh unreachable block after a terminating
// statement (return, break, goto, panic); statements that follow are
// collected there so dumps show them.
func (b *cfgBuilder) deadEnd() {
	b.cur = b.newBlock("unreachable", token.NoPos)
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
	if b.cur.Pos == token.NoPos {
		b.cur.Pos = n.Pos()
	}
}

// labelBlock returns (creating on first reference, so forward gotos work)
// the block a label names.
func (b *cfgBuilder) labelBlock(name string, pos token.Pos) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock("label."+name, pos)
	b.labels[name] = blk
	return blk
}

// takeLabel consumes the label attached to the statement being built (set by
// the LabeledStmt case for the loop/switch/select that follows it).
func (b *cfgBuilder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

func (b *cfgBuilder) findTarget(label string, wantContinue bool) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label != "" && t.label != label {
			continue
		}
		if wantContinue {
			if t.continueTo == nil {
				continue // switch/select: continue skips to the loop outside
			}
			return t.continueTo
		}
		return t.breakTo
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name, s.Pos())
		b.edge(b.cur, lb)
		b.cur = lb
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.curLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.deadEnd()

	case *ast.BranchStmt:
		switch s.Tok {
		case token.GOTO:
			b.add(s)
			b.edge(b.cur, b.labelBlock(s.Label.Name, s.Pos()))
			b.deadEnd()
		case token.BREAK, token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			b.add(s)
			if t := b.findTarget(label, s.Tok == token.CONTINUE); t != nil {
				b.edge(b.cur, t)
			}
			b.deadEnd()
		}
		// fallthrough is consumed by the switch walker.

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s.Call)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			b.edge(b.cur, b.cfg.Exit)
			b.deadEnd()
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		condBlk.Cond = s.Cond
		then := b.newBlock("if.then", s.Body.Pos())
		b.edge(condBlk, then)
		b.cur = then
		b.stmtList(s.Body.List)
		thenEnd := b.cur
		var elseEnd *Block
		if s.Else != nil {
			elseBlk := b.newBlock("if.else", s.Else.Pos())
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		join := b.newBlock("if.join", s.End())
		if s.Else == nil {
			b.edge(condBlk, join) // false edge
		}
		b.edge(thenEnd, join)
		if elseEnd != nil {
			b.edge(elseEnd, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head", s.Pos())
		b.edge(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Cond = s.Cond
		}
		body := b.newBlock("for.body", s.Body.Pos())
		b.edge(head, body)
		join := b.newBlock("for.join", s.End())
		if s.Cond != nil {
			b.edge(head, join) // false edge
		}
		continueTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post", s.Post.Pos())
			continueTo = post
		}
		b.targets = append(b.targets, loopTarget{label: label, breakTo: join, continueTo: continueTo})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, continueTo)
		b.targets = b.targets[:len(b.targets)-1]
		if post != nil {
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		b.cur = join

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head", s.Pos())
		b.edge(b.cur, head)
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock("range.body", s.Body.Pos())
		b.edge(head, body)
		join := b.newBlock("range.join", s.End())
		b.edge(head, join)
		b.targets = append(b.targets, loopTarget{label: label, breakTo: join, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = join

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, "case", true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, "typecase", false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		join := b.newBlock("select.join", s.End())
		b.targets = append(b.targets, loopTarget{label: label, breakTo: join})
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			kind := "select.case"
			if comm.Comm == nil {
				kind = "select.default"
			}
			blk := b.newBlock(kind, comm.Pos())
			b.edge(head, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.edge(b.cur, join)
		}
		b.targets = b.targets[:len(b.targets)-1]
		if len(s.Body.List) == 0 {
			// select{} blocks forever: no way out.
			b.deadEnd()
			return
		}
		b.cur = join

	default:
		// Assignments, declarations, go statements, sends, inc/dec,
		// empty statements: straight-line.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// switchBody builds the clause blocks of a switch or type switch.
// allowFallthrough distinguishes expression switches (fallthrough legal)
// from type switches.
func (b *cfgBuilder) switchBody(label string, body *ast.BlockStmt, kind string, allowFallthrough bool) {
	head := b.cur
	join := b.newBlock(kind+".join", body.End())
	b.targets = append(b.targets, loopTarget{label: label, breakTo: join})
	var blocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		k := kind
		if cc.List == nil {
			k = kind + ".default"
			hasDefault = true
		}
		blk := b.newBlock(k, cc.Pos())
		b.edge(head, blk)
		blocks = append(blocks, blk)
		clauses = append(clauses, cc)
	}
	if !hasDefault {
		b.edge(head, join)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		stmts := cc.Body
		fellThrough := false
		if allowFallthrough && len(stmts) > 0 {
			if br, ok := stmts[len(stmts)-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				stmts = stmts[:len(stmts)-1]
				fellThrough = true
			}
		}
		b.stmtList(stmts)
		if fellThrough && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, join)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = join
}

func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// prune drops empty unreachable blocks (builder artifacts after returns and
// breaks) and renumbers the survivors. Non-empty unreachable blocks — real
// dead code — are kept.
func (c *CFG) prune() {
	for {
		removed := false
		var keep []*Block
		for _, blk := range c.Blocks {
			if blk != c.Entry && blk != c.Exit && len(blk.Preds) == 0 && len(blk.Nodes) == 0 {
				for _, s := range blk.Succs {
					s.Preds = removeBlock(s.Preds, blk)
				}
				removed = true
				continue
			}
			keep = append(keep, blk)
		}
		c.Blocks = keep
		if !removed {
			break
		}
	}
	for i, blk := range c.Blocks {
		blk.Index = i
	}
}

func removeBlock(list []*Block, b *Block) []*Block {
	out := list[:0]
	for _, x := range list {
		if x != b {
			out = append(out, x)
		}
	}
	return out
}

// Dump renders the CFG in a stable text form for golden tests: one line per
// block with its kind, abbreviated statements, and successor indices.
func (c *CFG) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s\n", c.Name)
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "  b%d %s", blk.Index, blk.Kind)
		if len(blk.Nodes) > 0 {
			parts := make([]string, len(blk.Nodes))
			for i, n := range blk.Nodes {
				parts[i] = renderNode(n)
			}
			fmt.Fprintf(&sb, " [%s]", strings.Join(parts, "; "))
		}
		if len(blk.Succs) > 0 {
			idx := make([]string, len(blk.Succs))
			for i, s := range blk.Succs {
				idx[i] = fmt.Sprintf("b%d", s.Index)
			}
			fmt.Fprintf(&sb, " -> %s", strings.Join(idx, " "))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// renderNode prints an AST node on one line, truncated; the fixed FileSet
// keeps output independent of real source positions.
func renderNode(n ast.Node) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), n)
	s := strings.Join(strings.Fields(buf.String()), " ")
	const max = 48
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}

// ---- Forward dataflow ----

// FlowSpec drives RunForward: a forward may-analysis over a CFG. States are
// analyzer-defined; Merge joins states at control joins, Transfer pushes a
// state through a block's nodes, and the optional Edge hook refines the
// state along a specific branch (this is where `v != nil` guards become
// path-sensitivity).
type FlowSpec[S any] struct {
	Init     S
	Merge    func(a, b S) S
	Equal    func(a, b S) bool
	Transfer func(blk *Block, in S) S
	Edge     func(from, to *Block, out S) S
}

// RunForward iterates the spec to a fixpoint and returns the state at entry
// to and exit from each reached block. Unreachable blocks are absent from
// both maps.
func RunForward[S any](c *CFG, spec FlowSpec[S]) (in, out map[*Block]S) {
	in = map[*Block]S{c.Entry: spec.Init}
	out = map[*Block]S{}
	// Round-robin over blocks in index order (an approximation of reverse
	// post-order given how the builder numbers blocks) until stable.
	for {
		changed := false
		for _, blk := range c.Blocks {
			st, reached := in[blk]
			if blk != c.Entry {
				first := true
				for _, p := range blk.Preds {
					po, ok := out[p]
					if !ok {
						continue
					}
					if spec.Edge != nil {
						po = spec.Edge(p, blk, po)
					}
					if first {
						st, first = po, false
					} else {
						st = spec.Merge(st, po)
					}
				}
				if first {
					continue // no reached predecessor yet
				}
				if !reached || !spec.Equal(in[blk], st) {
					in[blk] = st
					changed = true
				}
			}
			next := spec.Transfer(blk, in[blk])
			if prev, ok := out[blk]; !ok || !spec.Equal(prev, next) {
				out[blk] = next
				changed = true
			}
		}
		if !changed {
			return in, out
		}
	}
}

// ---- Pass-level cache ----

// Flow is the per-run flow-sensitive layer handed to analyzers via
// Pass.Flow: a CFG cache (functions are analyzed by several analyzers; the
// graph is built once).
type Flow struct {
	cfgs map[*ast.BlockStmt]*CFG
}

// NewFlow creates the flow layer for one module run.
func NewFlow() *Flow {
	return &Flow{cfgs: map[*ast.BlockStmt]*CFG{}}
}

// CFG returns the (cached) control-flow graph for a function body.
func (f *Flow) CFG(name string, body *ast.BlockStmt) *CFG {
	if c, ok := f.cfgs[body]; ok {
		return c
	}
	c := BuildCFG(name, body)
	f.cfgs[body] = c
	return c
}

// funcUnit is one function declaration or literal with a stable display
// name; fileFuncs yields a file's units in source order.
type funcUnit struct {
	Name string
	Decl *ast.FuncDecl // nil for literals
	Body *ast.BlockStmt
}

func fileFuncs(file *ast.File) []funcUnit {
	var units []funcUnit
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			name = recvTypeName(fd.Recv.List[0].Type) + "." + name
		}
		units = append(units, funcUnit{Name: name, Decl: fd, Body: fd.Body})
		litIndex := 0
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				litIndex++
				units = append(units, funcUnit{
					Name: fmt.Sprintf("%s.func%d", name, litIndex),
					Body: lit.Body,
				})
			}
			return true
		})
	}
	return units
}

func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return "?"
}
