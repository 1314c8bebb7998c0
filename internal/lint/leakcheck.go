package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// leakcheckPackages are the layers that own OS-level resources: TCP shuffle
// links, the cluster conn pools and the shard worker's lifecycle, the
// serving daemon, and the result cache's files. A conn or file leaked there
// accumulates across queries instead of dying with a short-lived command.
var leakcheckPackages = map[string]bool{
	"shuffle": true,
	"cluster": true,
	"server":  true,
	"cache":   true,
}

// releaseMethods are the method names that relinquish a tracked resource.
// interproc.go uses the same set to compute ParamReleased summaries. EndAt
// is the explicit-offset form of Span.End, used by the worker-side span
// shipper's instrumentation.
var releaseMethods = map[string]bool{"Close": true, "Stop": true, "End": true, "EndAt": true}

// LeakCheckAnalyzer proves must-release on every control-flow path: a
// connection, file, ticker, timer, observability span or worker listener
// acquired by a function in the shuffle/cluster/server/cache layers must
// be released (Close/Stop/End), deferred, or handed off —
// returned, stored, sent, or passed to a callee whose summary says it
// retains or releases its argument — on every path to function exit.
// The check is flow-sensitive over the CFG (cfg.go) and interprocedurally
// aware through ParamReleased summaries, with lightweight path-sensitivity
// for `v != nil` and freshly paired `err != nil` guards so the idiomatic
// acquire-then-check-error prologue is not flagged.
func LeakCheckAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "leakcheck",
		AppliesTo: func(pkg *Package) bool {
			return leakcheckPackages[pathBase(pkg.Path)] || leakcheckPackages[pkg.Name]
		},
		Run: runLeakCheck,
	}
}

// resourceClass classifies a type as a tracked resource and names its
// release method. Pointers are unwrapped; the Conn rule is structural (any
// named Conn with a Close method) so the module's own shuffle.Conn and
// net.Conn are both covered; shuffle.Server is a shard worker's listener.
func resourceClass(t types.Type) (class, release string, ok bool) {
	t = types.Unalias(t)
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = types.Unalias(p.Elem())
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name()
	}
	switch {
	case pkg == "os" && obj.Name() == "File":
		return "os.File", "Close", true
	case pkg == "time" && obj.Name() == "Ticker":
		return "time.Ticker", "Stop", true
	case pkg == "time" && obj.Name() == "Timer":
		return "time.Timer", "Stop", true
	case pkg == "obs" && obj.Name() == "Span":
		return "obs.Span", "End", true
	case pkg == "shuffle" && obj.Name() == "Server":
		return "shuffle.Server", "Close", true
	case obj.Name() == "Conn" && hasMethodNamed(named, "Close"):
		return pkg + ".Conn", "Close", true
	}
	return "", "", false
}

// hasMethodNamed reports whether name is in the (pointer) method set of t.
func hasMethodNamed(t types.Type, name string) bool {
	recv := t
	if !types.IsInterface(t) {
		recv = types.NewPointer(t)
	}
	obj, _, _ := types.LookupFieldOrMethod(recv, true, nil, name)
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// leak-tracking lattice for one acquisition, ordered by "how leaky": merge
// at joins takes the max, so any live path survives to the exit check.
const (
	stNone      uint8 = iota // path does not hold the resource
	stDone                   // released or ownership handed off
	stLiveFresh              // held; the paired err var is still the acquisition's
	stLiveStale              // held; err has been reassigned since
)

// acquisition is one tracked resource: the assignment that created it, the
// variable holding it, and the error variable paired in the same statement
// (nil when the acquiring call returns no error).
type acquisition struct {
	assign  *ast.AssignStmt
	v       *types.Var
	errVar  *types.Var
	class   string
	release string
	block   *Block
	nodeIdx int
}

func runLeakCheck(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if isTestFile(filename) {
			continue
		}
		for _, fn := range fileFuncs(file) {
			checkLeaksInFunc(pass, fn)
		}
	}
}

func checkLeaksInFunc(pass *Pass, fn funcUnit) {
	info := pass.Pkg.Info
	cfg := pass.Flow.CFG(fn.Name, fn.Body)
	for _, acq := range findAcquisitions(info, cfg) {
		checkAcquisition(pass, info, cfg, acq)
	}
}

// findAcquisitions scans the CFG for `v, err := acquiringCall(...)` style
// assignments whose left-hand side binds a tracked resource type.
func findAcquisitions(info *types.Info, cfg *CFG) []acquisition {
	var acqs []acquisition
	for _, blk := range cfg.Blocks {
		if blk == cfg.Exit {
			continue // deferred calls never acquire for this frame
		}
		for idx, node := range blk.Nodes {
			as, ok := node.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			if _, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); !isCall {
				continue
			}
			var errVar *types.Var
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if v, ok := lhsVar(info, id); ok && isErrorType(v.Type()) {
						errVar = v
					}
				}
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				v, ok := lhsVar(info, id)
				if !ok {
					continue
				}
				class, release, ok := resourceClass(v.Type())
				if !ok {
					continue
				}
				acqs = append(acqs, acquisition{
					assign: as, v: v, errVar: errVar,
					class: class, release: release,
					block: blk, nodeIdx: idx,
				})
			}
		}
	}
	return acqs
}

func lhsVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v, true
	}
	v, ok := info.Uses[id].(*types.Var)
	return v, ok
}

func isErrorType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// checkAcquisition runs the may-leak flow for one acquisition and reports
// when some path reaches function exit still holding the resource.
func checkAcquisition(pass *Pass, info *types.Info, cfg *CFG, acq acquisition) {
	spec := FlowSpec[uint8]{
		Init:  stNone,
		Merge: func(a, b uint8) uint8 { return max(a, b) },
		Equal: func(a, b uint8) bool { return a == b },
		Transfer: func(blk *Block, in uint8) uint8 {
			st := in
			for idx, node := range blk.Nodes {
				if blk == acq.block && idx == acq.nodeIdx {
					st = stLiveFresh
					if acq.errVar == nil {
						st = stLiveStale
					}
					continue
				}
				if st != stLiveFresh && st != stLiveStale {
					continue
				}
				eff := nodeEffect(pass, info, node, acq)
				switch {
				case eff.released, eff.transferred, eff.vRedefined:
					st = stDone
				case eff.errRedefined && st == stLiveFresh:
					st = stLiveStale
				}
			}
			return st
		},
		Edge: func(from, to *Block, out uint8) uint8 {
			if out != stLiveFresh && out != stLiveStale {
				return out
			}
			return refineNilGuard(info, from, to, out, acq)
		},
	}
	_, out := RunForward(cfg, spec)
	exit := out[cfg.Exit]
	if exit != stLiveFresh && exit != stLiveStale {
		return
	}
	steps := leakTrace(pass, cfg, acq, out)
	pass.ReportPath(acq.assign.Pos(), steps,
		"%s (%s) is not released on every path: a path reaches function exit without %s(); %s on the error path, defer it, or hand ownership to a helper that releases it",
		acq.v.Name(), acq.class, acq.release, acq.release)
}

// refineNilGuard is the path-sensitive part: a `v != nil` / `v == nil`
// guard kills the resource on the nil branch, and — while the paired error
// variable is still the acquisition's own — `err != nil` implies the
// resource is nil on the error branch (the universal Go convention for
// (T, error) returns).
func refineNilGuard(info *types.Info, from, to *Block, out uint8, acq acquisition) uint8 {
	cond, ok := ast.Unparen(from.Cond).(*ast.BinaryExpr)
	if !ok || (cond.Op != token.EQL && cond.Op != token.NEQ) {
		return out
	}
	operand, isNilCmp := nilComparand(cond)
	if !isNilCmp {
		return out
	}
	id, ok := ast.Unparen(operand).(*ast.Ident)
	if !ok {
		return out
	}
	obj, _ := info.ObjectOf(id).(*types.Var)
	if obj == nil || len(from.Succs) < 2 {
		return out
	}
	onTrue := to == from.Succs[0]
	// cond `x == nil`: x is nil on the true edge; `x != nil`: on the false.
	nilEdge := (cond.Op == token.EQL) == onTrue
	if obj == acq.v && nilEdge {
		return stDone
	}
	if obj == acq.errVar && out == stLiveFresh {
		// err non-nil edge: the convention says the resource was not handed
		// out. err == nil on the true edge means non-nil on the false edge.
		errNonNil := (cond.Op == token.NEQ) == onTrue
		if errNonNil {
			return stDone
		}
	}
	return out
}

// nilComparand returns the non-nil side of a comparison against nil.
func nilComparand(cond *ast.BinaryExpr) (ast.Expr, bool) {
	if isNilIdent(cond.Y) {
		return cond.X, true
	}
	if isNilIdent(cond.X) {
		return cond.Y, true
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// effect summarizes what one CFG node does to a tracked resource.
type effect struct {
	released     bool
	transferred  bool
	vRedefined   bool
	errRedefined bool
}

// nodeEffect classifies one node. Deferred statements contribute nothing at
// registration — their calls replay as Exit-block effects, so a deferred
// release is seen exactly where it runs.
func nodeEffect(pass *Pass, info *types.Info, node ast.Node, acq acquisition) effect {
	var eff effect
	if _, isDefer := node.(*ast.DeferStmt); isDefer {
		return eff
	}
	// The CFG stores a range statement whole in its head block; only the
	// ranged expression evaluates there, the body has its own blocks.
	if rs, ok := node.(*ast.RangeStmt); ok {
		node = rs.X
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure mentioning the resource takes shared custody; it may
			// release it later (goroutine teardown, defer wrapper).
			if mentionsVar(info, n.Body, acq.v) {
				eff.transferred = true
			}
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj, _ := info.ObjectOf(id).(*types.Var); obj != nil {
						if obj == acq.v {
							eff.vRedefined = true
						}
						if obj == acq.errVar {
							eff.errRedefined = true
						}
					}
					continue
				}
				// v stored through a selector/index: ownership moves into
				// the structure.
				for _, rhs := range n.Rhs {
					if exprIsVar(info, rhs, acq.v) || mentionsVar(info, rhs, acq.v) {
						eff.transferred = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsVar(info, res, acq.v) {
					eff.transferred = true
				}
			}
		case *ast.SendStmt:
			if mentionsVar(info, n.Value, acq.v) {
				eff.transferred = true
			}
		case *ast.GoStmt:
			if mentionsVar(info, n.Call, acq.v) {
				eff.transferred = true
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if mentionsVar(info, elt, acq.v) {
					eff.transferred = true
				}
			}
		case *ast.CallExpr:
			classifyCall(pass, info, n, acq, &eff)
		}
		return true
	})
	return eff
}

// classifyCall decides what a call does with the resource: the release
// method on the variable itself releases it; a module-internal callee's
// summary decides between released / transferred / plain use; an external
// or dynamic callee receiving the resource is assumed to take ownership
// (conservative in the quiet direction — it can hide a leak, never invent
// one).
func classifyCall(pass *Pass, info *types.Info, call *ast.CallExpr, acq acquisition, eff *effect) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if exprIsVar(info, sel.X, acq.v) {
			if sel.Sel.Name == acq.release ||
				(acq.release == "End" && sel.Sel.Name == "EndAt") {
				eff.released = true
			}
			return // other methods on the resource are plain uses
		}
	}
	fi := pass.IP.StaticCallee(info, call)
	for i, arg := range call.Args {
		if !exprIsVar(info, arg, acq.v) {
			continue
		}
		if fi == nil {
			eff.transferred = true
			continue
		}
		f := fi.Summary.ArgFacts(i)
		switch {
		case f&ParamReleased != 0:
			eff.released = true
		case f&(ParamRetained|ParamToGoroutine|ParamToGlobal|ParamEscapes) != 0:
			eff.transferred = true
		}
	}
}

func exprIsVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj, _ := info.ObjectOf(id).(*types.Var)
	return obj == v
}

func mentionsVar(info *types.Info, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			if obj, _ := info.ObjectOf(id).(*types.Var); obj == v {
				found = true
			}
		}
		return true
	})
	return found
}

// leakTrace reconstructs one concrete leaking path — acquisition to exit
// through live blocks — as trace steps for the rendered finding.
func leakTrace(pass *Pass, cfg *CFG, acq acquisition, out map[*Block]uint8) []TraceStep {
	steps := []TraceStep{{
		Pos:  pass.Fset.Position(acq.assign.Pos()),
		Text: acq.v.Name() + " acquired (" + acq.class + ")",
	}}
	// BFS over blocks whose computed out-state still holds the resource.
	parent := map[*Block]*Block{acq.block: nil}
	queue := []*Block{acq.block}
	var reached *Block
	for len(queue) > 0 && reached == nil {
		b := queue[0]
		queue = queue[1:]
		if b == cfg.Exit {
			reached = b
			break
		}
		for _, s := range b.Succs {
			if _, seen := parent[s]; seen {
				continue
			}
			st, ok := out[s]
			if !ok || (s != cfg.Exit && st != stLiveFresh && st != stLiveStale) {
				continue
			}
			parent[s] = b
			queue = append(queue, s)
		}
	}
	if reached == nil {
		return steps
	}
	var path []*Block
	for b := reached; b != nil; b = parent[b] {
		path = append(path, b)
	}
	for i := len(path) - 2; i > 0; i-- {
		b := path[i]
		switch b.Kind {
		case "if.join", "case.join", "typecase.join", "select.join", "for.join", "range.join", "entry":
			continue
		}
		steps = append(steps, TraceStep{
			Pos:  pass.Fset.Position(b.Pos),
			Text: "path continues through " + b.Kind,
		})
	}
	steps = append(steps, TraceStep{
		Pos:  pass.Fset.Position(cfg.Exit.Pos),
		Text: "function exit reached without " + acq.release + "()",
	})
	return steps
}

// isTestFile reports whether a filename is a Go test file; the resource and
// error-flow invariants target production paths, and tests routinely leak
// short-lived fixtures on purpose.
func isTestFile(filename string) bool {
	const suffix = "_test.go"
	return len(filename) >= len(suffix) && filename[len(filename)-len(suffix):] == suffix
}
