package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// rddActions are the rdd (and pipeline) entry points that materialize data:
// they fan work out to the shared worker pool and block until every task
// finishes. Holding a mutex across one serializes the data-parallel engine
// at best and deadlocks it at worst (a task that needs the same mutex can
// never run).
var rddActions = map[string]bool{
	"Collect": true, "Count": true, "Take": true, "Reduce": true,
	"Aggregate": true, "GroupByKey": true, "CoGroup": true,
	"JoinHash": true, "Execute": true,
}

// LockDisciplineAnalyzer flags a sync.Mutex/RWMutex held across a channel
// send or receive, a select, or a call into rdd execution (Collect, Count,
// shuffles, pipeline.Execute), directly or through a helper whose summary
// blocks. Each is a deadlock source in cache, kvstore and rdd: the worker
// pool and the lock form a cycle the runtime cannot break.
func LockDisciplineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "lockdiscipline",
		Run:  runLockDiscipline,
	}
}

func runLockDiscipline(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					walkLocked(pass, fn.Body.List, map[string]bool{})
				}
			case *ast.FuncLit:
				// Function literals have their own defer scope; they are
				// walked as independent bodies (a lock taken by the
				// enclosing function is invisible here — closures run on
				// arbitrary goroutines in this codebase).
				walkLocked(pass, fn.Body.List, map[string]bool{})
				return false
			}
			return true
		})
	}
}

// lockMethod classifies a call as a sync (RW)Mutex lock or unlock, returning
// the rendered receiver expression ("c.mu") as the lock identity.
func lockMethod(info *types.Info, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj, isFn := info.ObjectOf(sel.Sel).(*types.Func)
	if !isFn || obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch obj.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return types.ExprString(sel.X), obj.Name(), true
	}
	return "", "", false
}

// walkLocked walks a statement list in order, tracking the set of held lock
// keys and reporting hazards that occur while any lock is held. Branch
// bodies are walked with a copy of the held set; a lock released inside a
// branch is (conservatively) still considered held after it.
func walkLocked(pass *Pass, stmts []ast.Stmt, held map[string]bool) {
	info := pass.Pkg.Info
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, method, ok := lockMethod(info, call); ok {
					switch method {
					case "Lock", "RLock":
						held[key] = true
					case "Unlock", "RUnlock":
						delete(held, key)
					}
					continue
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() pins the lock for the rest of the body;
			// the held set intentionally keeps it.
			if _, _, ok := lockMethod(info, s.Call); ok {
				continue
			}
		}
		if len(held) > 0 {
			reportLockedHazards(pass, stmt, held)
		}
		// Recurse into compound statements with a copy of the held set.
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			walkLocked(pass, s.List, copyHeld(held))
		case *ast.IfStmt:
			walkLocked(pass, s.Body.List, copyHeld(held))
			if s.Else != nil {
				if blk, ok := s.Else.(*ast.BlockStmt); ok {
					walkLocked(pass, blk.List, copyHeld(held))
				} else {
					walkLocked(pass, []ast.Stmt{s.Else}, copyHeld(held))
				}
			}
		case *ast.ForStmt:
			walkLocked(pass, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			walkLocked(pass, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLocked(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLocked(pass, cc.Body, copyHeld(held))
				}
			}
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// reportLockedHazards inspects one statement (excluding nested function
// literals and nested compound bodies, which the walker visits itself) for
// channel operations and rdd actions.
func reportLockedHazards(pass *Pass, stmt ast.Stmt, held map[string]bool) {
	info := pass.Pkg.Info
	locks := heldNames(held)
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			if sel, ok := node.(*ast.SelectStmt); ok {
				pass.Reportf(sel.Pos(), "select while holding %s: a blocked case deadlocks every other holder of the lock", locks)
			}
			return n == ast.Node(stmt) // only inspect the statement's own level
		case *ast.SendStmt:
			pass.Reportf(node.Arrow, "channel send while holding %s: if the channel blocks, every other acquirer of the lock deadlocks", locks)
		case *ast.UnaryExpr:
			if node.Op.String() == "<-" {
				pass.Reportf(node.OpPos, "channel receive while holding %s: if the channel blocks, every other acquirer of the lock deadlocks", locks)
			}
		case *ast.CallExpr:
			name, pkg, ok := pkgCallee(info, node)
			if ok && pkg == "rdd" && rddActions[name] {
				pass.Reportf(node.Pos(), "calls rdd.%s while holding %s: rdd actions block on the shared worker pool; a task needing the same lock deadlocks", name, locks)
			} else if ok && pkg == "pipeline" && rddActions[name] {
				pass.Reportf(node.Pos(), "calls pipeline.%s while holding %s: plan execution blocks on the shared worker pool; a task needing the same lock deadlocks", name, locks)
			} else if fi := pass.IP.StaticCallee(info, node); fi != nil && fi.Summary.Blocks {
				// Interprocedural: the blocking operation hides inside a
				// helper, but the summary chain names it.
				pass.Reportf(node.Pos(), "calls %s while holding %s: %s blocks (%s); if it blocks, every other acquirer of the lock deadlocks",
					fi.Obj.Name(), locks, fi.Obj.Name(), fi.Summary.BlockDetail)
			}
		}
		return true
	})
}

// pkgCallee resolves a call to (function name, defining package name),
// through an explicit generic instantiation (rdd.Map[A, B](...)) too.
func pkgCallee(info *types.Info, call *ast.CallExpr) (name, pkg string, ok bool) {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.IndexExpr:
		return pkgCallee(info, &ast.CallExpr{Fun: fn.X})
	case *ast.IndexListExpr:
		return pkgCallee(info, &ast.CallExpr{Fun: fn.X})
	default:
		return "", "", false
	}
	obj, isFn := info.ObjectOf(id).(*types.Func)
	if !isFn || obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Name(), obj.Pkg().Name(), true
}

// heldNames renders the held lock set for messages.
func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
