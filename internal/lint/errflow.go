package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// errflowPackages are the serving and cluster layers, where a dropped error
// turns a failed remote exchange into silently wrong query results.
var errflowPackages = map[string]bool{
	"server":  true,
	"cluster": true,
}

// ErrFlowAnalyzer tracks error values along CFG paths in serving/cluster
// code. It reports three hazards: an error that is overwritten by a later
// assignment before any path reads it; an error that reaches function exit
// without ever being read; and an *rdd.ExecFailure that a handler matches
// but then swallows into a freshly built generic error, discarding the
// stage and cause the failure carried.
func ErrFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "errflow",
		AppliesTo: func(pkg *Package) bool {
			return errflowPackages[pathBase(pkg.Path)] || errflowPackages[pkg.Name]
		},
		Run: runErrFlow,
	}
}

func runErrFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if isTestFile(filename) {
			continue
		}
		for _, fn := range fileFuncs(file) {
			checkErrFlowInFunc(pass, fn)
		}
		checkSwallowedExecFailure(pass, file)
	}
}

// errDef is one assignment of a non-nil expression to an error variable.
type errDef struct {
	assign  *ast.AssignStmt
	v       *types.Var
	source  string // callee name when the RHS is a call, for messages
	block   *Block
	nodeIdx int
}

func checkErrFlowInFunc(pass *Pass, fn funcUnit) {
	info := pass.Pkg.Info
	cfg := pass.Flow.CFG(fn.Name, fn.Body)

	// Error variables captured by closures (deferred err-wrapping, callbacks)
	// or named as results have reads the CFG cannot see; skip them.
	skip := closureTouchedErrVars(info, fn.Body)
	named := namedErrorResults(info, fn)

	for _, def := range findErrDefs(info, cfg, skip) {
		checkErrDef(pass, info, cfg, def, named)
	}
}

// findErrDefs collects assignments to error-typed local variables. Resets
// to nil are not defs (clearing an error carries no information to lose).
func findErrDefs(info *types.Info, cfg *CFG, skip map[*types.Var]bool) []errDef {
	var defs []errDef
	for _, blk := range cfg.Blocks {
		if blk == cfg.Exit {
			continue
		}
		for idx, node := range blk.Nodes {
			as, ok := node.(*ast.AssignStmt)
			if !ok {
				continue
			}
			for li, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				v, ok := lhsVar(info, id)
				if !ok || !isErrorType(v.Type()) || skip[v] {
					continue
				}
				// Find the defining expression; skip err = nil resets.
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[li]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				}
				if rhs == nil || isNilIdent(rhs) {
					continue
				}
				source := "the assigned expression"
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					if name, _, ok := pkgCallee(info, call); ok {
						source = name
					} else if txt := types.ExprString(call.Fun); txt != "" && len(txt) <= 40 {
						source = txt
					}
				}
				defs = append(defs, errDef{assign: as, v: v, source: source, block: blk, nodeIdx: idx})
			}
		}
	}
	return defs
}

// per-def flow lattice: is the def's value still unread along some path?
const (
	errNone    uint8 = iota // def not live here
	errPending              // assigned, not yet read on this path
)

// checkErrDef runs the def-use flow for one error assignment. The fixpoint
// computes block out-states; a deterministic replay then reports the first
// overwriting assignment reachable while the value is unread, and a pending
// state at Exit reports a discarded error.
func checkErrDef(pass *Pass, info *types.Info, cfg *CFG, def errDef, namedResults map[*types.Var]bool) {
	apply := func(node ast.Node, idx int, blk *Block, st uint8, onOverwrite func(ast.Node)) uint8 {
		if blk == def.block && idx == def.nodeIdx {
			// The defining assignment: RHS reads (err = wrap(err)) count
			// first, then the def arms the tracker.
			return errPending
		}
		if st != errPending {
			return st
		}
		if nodeReadsVar(info, node, def.v) {
			return errNone
		}
		if as, ok := node.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj, _ := info.ObjectOf(id).(*types.Var); obj == def.v {
						if onOverwrite != nil {
							onOverwrite(node)
						}
						return errNone
					}
				}
			}
		}
		if rs, ok := node.(*ast.ReturnStmt); ok {
			// A bare return publishes named error results.
			if len(rs.Results) == 0 && namedResults[def.v] {
				return errNone
			}
		}
		return st
	}

	_, out := RunForward(cfg, FlowSpec[uint8]{
		Init:  errNone,
		Merge: func(a, b uint8) uint8 { return max(a, b) },
		Equal: func(a, b uint8) bool { return a == b },
		Transfer: func(blk *Block, in uint8) uint8 {
			st := in
			for idx, node := range blk.Nodes {
				st = apply(node, idx, blk, st, nil)
			}
			return st
		},
	})

	// Replay for the overwrite report (first in block order wins; report
	// once per def).
	reported := false
	for _, blk := range cfg.Blocks {
		st, ok := errInState(cfg, blk, out)
		if !ok {
			continue
		}
		for idx, node := range blk.Nodes {
			st = apply(node, idx, blk, st, func(over ast.Node) {
				if reported || over == ast.Node(def.assign) {
					return
				}
				reported = true
				pass.ReportPath(def.assign.Pos(), []TraceStep{
					{Pos: pass.Fset.Position(def.assign.Pos()), Text: def.v.Name() + " assigned from " + def.source},
					{Pos: pass.Fset.Position(over.Pos()), Text: def.v.Name() + " overwritten before any read"},
				}, "error %q assigned from %s is overwritten before any path reads it — check or propagate it before reassigning",
					def.v.Name(), def.source)
			})
		}
	}
	if reported {
		return
	}
	if out[cfg.Exit] == errPending && pendingFallsOffEnd(cfg, out) {
		pass.ReportPath(def.assign.Pos(), []TraceStep{
			{Pos: pass.Fset.Position(def.assign.Pos()), Text: def.v.Name() + " assigned from " + def.source},
			{Pos: pass.Fset.Position(cfg.Exit.Pos), Text: "function exit reached with " + def.v.Name() + " unread"},
		}, "error %q assigned from %s is never read on some path to function exit — handle it or drop the assignment explicitly",
			def.v.Name(), def.source)
	}
}

// pendingFallsOffEnd reports whether some still-unread path reaches the exit
// by falling off the function end (or a bare return) rather than through an
// explicit `return <values>` or a panic. A valued return on the unread path
// is the retry-loop idiom — `lastErr = err; continue` with a later attempt
// succeeding — where the author visibly substituted another value; the
// error evaporating at an implicit function end is the real discard.
func pendingFallsOffEnd(cfg *CFG, out map[*Block]uint8) bool {
	for _, p := range cfg.Exit.Preds {
		if out[p] != errPending {
			continue
		}
		if len(p.Nodes) == 0 {
			return true
		}
		switch last := p.Nodes[len(p.Nodes)-1].(type) {
		case *ast.ReturnStmt:
			if len(last.Results) == 0 {
				return true
			}
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					continue
				}
			}
			return true
		default:
			return true
		}
	}
	return false
}

// errInState recomputes a block's in-state from predecessor out-states.
func errInState(cfg *CFG, blk *Block, out map[*Block]uint8) (uint8, bool) {
	if blk == cfg.Entry {
		return errNone, true
	}
	st, reached := errNone, false
	for _, p := range blk.Preds {
		po, ok := out[p]
		if !ok {
			continue
		}
		reached = true
		st = max(st, po)
	}
	return st, reached
}

// nodeReadsVar reports whether the node reads v — any mention that is not a
// plain assignment target. Defer statements read their closure bodies too
// (deferred err-handling is a read).
func nodeReadsVar(info *types.Info, node ast.Node, v *types.Var) bool {
	if rs, ok := node.(*ast.RangeStmt); ok {
		node = rs.X
	}
	assignTargets := map[*ast.Ident]bool{}
	if as, ok := node.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				assignTargets[id] = true
			}
		}
	}
	reads := false
	ast.Inspect(node, func(n ast.Node) bool {
		if reads {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && !assignTargets[id] {
			if obj, _ := info.ObjectOf(id).(*types.Var); obj == v {
				reads = true
			}
		}
		return true
	})
	return reads
}

// closureTouchedErrVars collects error variables referenced inside function
// literals: their reads happen on schedules the per-function CFG cannot
// order, so tracking them would be noise.
func closureTouchedErrVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	touched := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(cn ast.Node) bool {
			if id, ok := cn.(*ast.Ident); ok {
				if v, _ := info.ObjectOf(id).(*types.Var); v != nil && isErrorType(v.Type()) {
					touched[v] = true
				}
			}
			return true
		})
		return false
	})
	return touched
}

// namedErrorResults returns the unit's named error-typed result variables.
func namedErrorResults(info *types.Info, fn funcUnit) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	if fn.Decl == nil || fn.Decl.Type.Results == nil {
		return out
	}
	for _, field := range fn.Decl.Type.Results.List {
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok && isErrorType(v.Type()) {
				out[v] = true
			}
		}
	}
	return out
}

// ---- swallowed ExecFailure ----

// checkSwallowedExecFailure finds handlers that match *rdd.ExecFailure —
// via a type-switch case or an errors.As guard — and then return a freshly
// built generic error (fmt.Errorf without %w / errors.New) that references
// neither the matched failure nor the original error. The stage and cause
// the failure carried are lost at that return.
func checkSwallowedExecFailure(pass *Pass, file *ast.File) {
	info := pass.Pkg.Info
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSwitchStmt:
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CaseClause)
				if !caseMatchesExecFailure(info, cc) {
					continue
				}
				vars := typeSwitchVars(info, n, cc)
				reportGenericReturns(pass, info, cc.Body, vars)
			}
		case *ast.IfStmt:
			vars, ok := execFailureAsGuard(info, n.Cond)
			if !ok {
				return true
			}
			reportGenericReturns(pass, info, n.Body.List, vars)
		}
		return true
	})
}

// isExecFailureType matches *ExecFailure (or ExecFailure) declared in a
// package named rdd — the module's placement layer, or a fixture's stand-in.
func isExecFailureType(t types.Type) bool {
	named := namedOwner(t)
	return named != nil && named.Obj().Name() == "ExecFailure" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "rdd"
}

// namedOwner strips pointers/aliases down to a named type, nil otherwise.
func namedOwner(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

func caseMatchesExecFailure(info *types.Info, cc *ast.CaseClause) bool {
	for _, e := range cc.List {
		if tv, ok := info.Types[e]; ok && isExecFailureType(tv.Type) {
			return true
		}
	}
	return false
}

// typeSwitchVars collects the variables whose contents a matched handler
// may legitimately propagate: the per-clause implicit variable and the
// switched expression's root.
func typeSwitchVars(info *types.Info, sw *ast.TypeSwitchStmt, cc *ast.CaseClause) map[*types.Var]bool {
	vars := map[*types.Var]bool{}
	if v, ok := info.Implicits[cc].(*types.Var); ok {
		vars[v] = true
	}
	// switched expression: `switch f := err.(type)` — also allow err itself.
	ast.Inspect(sw.Assign, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, _ := info.ObjectOf(id).(*types.Var); v != nil {
				vars[v] = true
			}
		}
		return true
	})
	return vars
}

// execFailureAsGuard matches `errors.As(err, &ef)` where ef is
// *rdd.ExecFailure, returning the vars a handler may propagate (ef, err).
func execFailureAsGuard(info *types.Info, cond ast.Expr) (map[*types.Var]bool, bool) {
	call, ok := ast.Unparen(cond).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return nil, false
	}
	if name, pkgName, ok := pkgCallee(info, call); !ok || pkgName != "errors" || name != "As" {
		return nil, false
	}
	target := ast.Unparen(call.Args[1])
	un, ok := target.(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, false
	}
	id, ok := ast.Unparen(un.X).(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, _ := info.ObjectOf(id).(*types.Var)
	if v == nil || !isExecFailureType(v.Type()) {
		return nil, false
	}
	vars := map[*types.Var]bool{v: true}
	if srcID, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if sv, _ := info.ObjectOf(srcID).(*types.Var); sv != nil {
			vars[sv] = true
		}
	}
	return vars, true
}

// reportGenericReturns flags returns inside a matched handler whose error
// result is a fresh fmt.Errorf (without %w) or errors.New referencing none
// of the allowed variables.
func reportGenericReturns(pass *Pass, info *types.Info, body []ast.Stmt, allowed map[*types.Var]bool) {
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			rs, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range rs.Results {
				call, ok := ast.Unparen(res).(*ast.CallExpr)
				if !ok {
					continue
				}
				name, pkgName, ok := pkgCallee(info, call)
				if !ok {
					continue
				}
				generic := (pkgName == "errors" && name == "New") ||
					(pkgName == "fmt" && name == "Errorf" && !errorfWraps(call))
				if !generic {
					continue
				}
				if callMentionsAny(info, call, allowed) {
					continue
				}
				pass.Reportf(rs.Pos(),
					"ExecFailure matched here is swallowed into a generic %s.%s error — the stage and cause are lost; wrap the failure with %%w or return it unchanged",
					pkgName, name)
			}
			return true
		})
	}
}

// errorfWraps reports whether a fmt.Errorf call's format string uses %w.
func errorfWraps(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	return ok && lit.Kind == token.STRING && strings.Contains(lit.Value, "%w")
}

func callMentionsAny(info *types.Info, call *ast.CallExpr, vars map[*types.Var]bool) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, _ := info.ObjectOf(id).(*types.Var); v != nil && vars[v] {
				found = true
			}
		}
		return true
	})
	return found
}
