package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// computeContract is the rdd.RDD compute contract the purity analyzer
// enforces, quoted so findings cite the rule (see internal/rdd/rdd.go).
const computeContract = "rdd compute closures must be safe to call concurrently for distinct partitions and pure with respect to their input lineage (rdd.RDD compute contract)"

// rddClosureFuncs are the rdd entry points whose function-literal arguments
// execute data-parallel across partitions. Closures handed to any of these
// are "compute" bodies in the sense of the contract.
var rddClosureFuncs = map[string]bool{
	"Map": true, "FlatMap": true, "Filter": true, "MapPartitions": true,
	"Generate": true, "GroupByKey": true, "CoGroup": true,
	"JoinHash": true, "Reduce": true, "Aggregate": true,
	"ExchangePartitions": true, "ZipPartitions": true,
}

// frameClosureFuncs are the columnar kernel entry points (package frame)
// whose function-literal arguments run inside rdd compute bodies: a closure
// handed to a mask kernel executes once per row of every partition's
// batches concurrently, so it inherits the same contract.
var frameClosureFuncs = map[string]bool{
	"MaskRows": true, "MaskValues": true,
}

// PurityAnalyzer flags RDD compute closures that write captured variables or
// package-level state. Such writes race across partitions: the worker pool
// runs one closure invocation per partition concurrently (§5.3), so the only
// safe side channel is the closure's return value.
func PurityAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "purity",
		Doc: "RDD compute/Map/Filter/FlatMap closures and derive transform funcs " +
			"must not write captured variables or package-level state; " +
			computeContract + ".",
		Run: runPurity,
	}
}

func runPurity(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				pkg, name, ok := parallelCallee(info, node)
				if !ok {
					return true
				}
				var what string
				switch {
				case pkg == "rdd" && rddClosureFuncs[name]:
					what = "closure passed to rdd." + name
				case pkg == "frame" && frameClosureFuncs[name]:
					what = "kernel closure passed to frame." + name
				default:
					return true
				}
				for _, arg := range node.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkParallelClosure(pass, lit, what)
					}
				}
			case *ast.CompositeLit:
				// Inside package rdd itself, compute bodies are assigned
				// directly to the RDD literal's compute field.
				if !isRDDType(info.Types[ast.Expr(node)].Type) {
					return true
				}
				for _, elt := range node.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || key.Name != "compute" {
						continue
					}
					if lit, ok := kv.Value.(*ast.FuncLit); ok {
						checkParallelClosure(pass, lit, "RDD compute closure")
					}
				}
			}
			return true
		})
	}
}

// parallelCallee resolves a call's callee and reports its defining package
// name and function name when it is a function (or method) from one of the
// data-parallel substrates ("rdd" or "frame").
func parallelCallee(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.IndexExpr: // explicit generic instantiation rdd.Map[A, B](...)
		return parallelCallee(info, &ast.CallExpr{Fun: fn.X})
	case *ast.IndexListExpr:
		return parallelCallee(info, &ast.CallExpr{Fun: fn.X})
	default:
		return "", "", false
	}
	obj := info.ObjectOf(id)
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	pkg := obj.Pkg().Name()
	if pkg != "rdd" && pkg != "frame" {
		return "", "", false
	}
	if _, ok := obj.(*types.Func); !ok {
		return "", "", false
	}
	return pkg, obj.Name(), true
}

// isRDDType reports whether t is (a pointer to) a named type from a package
// named "rdd".
func isRDDType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Name() == "rdd"
}

// checkParallelClosure reports writes inside lit that escape the closure.
func checkParallelClosure(pass *Pass, lit *ast.FuncLit, what string) {
	info := pass.Pkg.Info
	captured := func(id *ast.Ident) (*types.Var, bool) {
		obj := info.ObjectOf(id)
		v, ok := obj.(*types.Var)
		if !ok || id.Name == "_" {
			return nil, false
		}
		// Declared outside the literal (including package level) = captured.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return nil, false
		}
		return v, true
	}
	report := func(pos token.Pos, form string, v *types.Var) {
		where := "captured variable"
		if v.Parent() == v.Pkg().Scope() {
			where = "package-level variable"
		}
		pass.Reportf(pos, "%s %s %s %q — this races across partitions: %s",
			what, form, where, v.Name(), computeContract)
	}
	checkWrite := func(target ast.Expr, define bool) {
		switch t := ast.Unparen(target).(type) {
		case *ast.Ident:
			if define {
				return
			}
			if v, ok := captured(t); ok {
				report(t.Pos(), "assigns to", v)
			}
		case *ast.IndexExpr:
			if root := rootIdent(t.X); root != nil {
				if v, ok := captured(root); ok {
					report(t.Pos(), "writes an element of", v)
				}
			}
		case *ast.StarExpr:
			if root := rootIdent(t.X); root != nil {
				if v, ok := captured(root); ok {
					report(t.Pos(), "writes through", v)
				}
			}
		case *ast.SelectorExpr:
			// Field write on a captured struct variable. Selections through
			// a package name are package-level writes caught via the root.
			if root := rootIdent(t.X); root != nil {
				if v, ok := captured(root); ok {
					report(t.Pos(), "writes a field of", v)
				}
			}
		}
	}
	// checkCall consults the interprocedural summary of a called helper: a
	// write that happens inside bump() is as impure as one written inline.
	checkCall := func(call *ast.CallExpr) {
		fi := pass.IP.StaticCallee(info, call)
		if fi == nil {
			return
		}
		sum := &fi.Summary
		if sum.WritesGlobal {
			pass.Reportf(call.Pos(), "%s calls %s, which %s (function summary) — this races across partitions: %s",
				what, fi.Obj.Name(), sum.GlobalDetail, computeContract)
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sum.RecvFacts()&ParamMutated != 0 {
			if root := rootIdent(sel.X); root != nil {
				if v, ok := captured(root); ok {
					pass.Reportf(call.Pos(), "%s calls %s, which mutates its receiver %q (function summary) — this races across partitions: %s",
						what, fi.Obj.Name(), v.Name(), computeContract)
				}
			}
		}
		for i, arg := range call.Args {
			if sum.ArgFacts(i)&ParamMutated == 0 {
				continue
			}
			arg = ast.Unparen(arg)
			if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
				arg = u.X
			}
			if sl, ok := arg.(*ast.SliceExpr); ok {
				arg = sl.X
			}
			if root := rootIdent(arg); root != nil {
				if v, ok := captured(root); ok {
					pass.Reportf(call.Pos(), "%s passes captured variable %q to %s, which mutates it (function summary) — this races across partitions: %s",
						what, v.Name(), fi.Obj.Name(), computeContract)
				}
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkWrite(lhs, s.Tok == token.DEFINE)
			}
		case *ast.IncDecStmt:
			checkWrite(s.X, false)
		case *ast.SendStmt:
			if root := rootIdent(s.Chan); root != nil {
				if v, ok := captured(root); ok {
					report(s.Arrow, "sends on", v)
				}
			}
		case *ast.CallExpr:
			checkCall(s)
		}
		return true
	})
}

// rootIdent walks selector/index/star/paren chains to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
