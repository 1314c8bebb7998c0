package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ctxflowPackages are the layers whose blocking paths must thread the
// caller's cancellable context (PR-2 invariant: cancellation propagates
// engine → pipeline → rdd → server with no gaps a stuck query can hide in;
// the distributed layers — shuffle, cluster — extend the chain across the
// exchange RPCs; the serving daemon's and the shard worker's lifecycles
// live in server and cluster).
var ctxflowPackages = map[string]bool{
	"engine":   true,
	"pipeline": true,
	"rdd":      true,
	"server":   true,
	"shuffle":  true,
	"cluster":  true,
}

// CtxFlowAnalyzer flags context-propagation breaks in the execution layers:
// a function that receives a context but replaces it with
// context.Background/TODO, a function that starts a fresh background
// context to feed a context-threading callee, and — interprocedurally — a
// function whose context parameter is never consulted even though its
// summary says it blocks (so cancellation can never reach the block).
// Blocking and looping paths in the ctxflowPackages layers must thread the
// caller's cancellable context.
func CtxFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		AppliesTo: func(pkg *Package) bool {
			return ctxflowPackages[pathBase(pkg.Path)] || ctxflowPackages[pkg.Name]
		},
		Run: runCtxFlow,
	}
}

func runCtxFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		// Tests may legitimately root fresh contexts and block on fixtures.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxFlowFn(pass, fd)
		}
	}
}

func checkCtxFlowFn(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	obj, _ := info.Defs[fd.Name].(*types.Func)
	fi := pass.IP.FuncOf(obj)
	if fi == nil {
		return
	}
	s := &fi.Summary

	// Interprocedural: the context parameter is dead weight on a function
	// whose summary (possibly through callees) says it blocks — the caller
	// believes cancellation works, but nothing consults the context.
	if s.CtxParam != nil && !s.UsesCtx && s.Blocks {
		pass.Reportf(fd.Name.Pos(),
			"%s receives a context but never consults it while it blocks (%s) — cancellation cannot reach the blocking path; thread the context into it",
			fd.Name.Name, s.BlockDetail)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A fresh root context created where a caller context exists.
		if name, ok := backgroundCtxCall(info, call); ok && s.CtxParam != nil {
			pass.Reportf(call.Pos(),
				"calls context.%s inside a function that already receives a context — the caller's cancellation is dropped here; pass %s through instead",
				name, s.CtxParam.Name())
			return true
		}
		// A fresh root context fed straight into a context-threading module
		// callee from a function with no context of its own: the blocking
		// work underneath becomes uncancellable. (When the function has a
		// context parameter the Background call itself was flagged above.)
		if s.CtxParam != nil {
			return true
		}
		for _, arg := range call.Args {
			argCall, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			name, ok := backgroundCtxCall(info, argCall)
			if !ok {
				continue
			}
			callee := pass.IP.StaticCallee(info, call)
			if callee == nil || callee.Summary.CtxParam == nil {
				continue
			}
			pass.Reportf(argCall.Pos(),
				"passes context.%s to %s, which threads a context through its work — plumb a cancellable context from the caller instead of rooting a fresh one",
				name, callee.Obj.Name())
		}
		return true
	})
}

// backgroundCtxCall recognizes context.Background() and context.TODO().
func backgroundCtxCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Background" && name != "TODO" {
		return "", false
	}
	obj, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	return name, true
}
