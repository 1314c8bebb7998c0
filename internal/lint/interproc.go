package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural layer of the analyzer framework: a call
// graph over the loaded module plus one dataflow summary per declared
// function, computed bottom-up over strongly connected components. Analyzers
// query summaries through Pass.IP, so a violation hidden behind a helper
// function ("the lock holder calls notify(), and notify sends on a
// channel") is as visible as a direct one. Summaries are deliberately
// coarse — sets of monotone facts, no path or context sensitivity —
// because every fact feeds a CI gate that must be fast, deterministic, and
// explainable in one finding message.

// ParamFacts are dataflow facts about one parameter (or receiver).
type ParamFacts uint8

const (
	// ParamEscapes: the parameter is returned, stored into a global, a
	// field, an element, a channel, or a composite literal, or passed to a
	// callee that lets it escape. An escaping parameter may be retained
	// beyond the call ("published").
	ParamEscapes ParamFacts = 1 << iota
	// ParamToGoroutine: the parameter flows into a go statement — it is
	// referenced by code that outlives the call frame on another goroutine.
	ParamToGoroutine
	// ParamToGlobal: the parameter is stored into package-level state,
	// directly or by a transitive callee — the strongest pin: it outlives
	// every call frame.
	ParamToGlobal
	// ParamRetained: the parameter is stored into heap-reachable storage —
	// a field, a slice/map element, a channel send, or a composite literal.
	// Unlike a plain ParamEscapes return (where the caller keeps custody of
	// the value it receives back), a retained parameter may be referenced
	// after the call returns. leakcheck uses this so that handing a
	// resource to a helper that retains it counts as transferring
	// ownership, not as leaking it.
	ParamRetained
	// ParamReleased: the function calls the parameter's release method —
	// Close, Stop, or End — directly, in a deferred/nested literal, or via
	// a transitive callee. leakcheck uses this so that handing a resource
	// to a helper that closes it counts as releasing it.
	ParamReleased
)

// Summary is the dataflow summary of one declared function.
type Summary struct {
	recv   *types.Var
	params []*types.Var
	facts  map[*types.Var]ParamFacts

	// Blocks: the function body — excluding nested function literals, which
	// run on whichever goroutine invokes them — performs a channel send or
	// receive, a select without default, ranges over a channel, or calls
	// into rdd/pipeline execution, directly or transitively.
	Blocks bool
	// BlockDetail describes the first blocking cause, chaining through
	// callees: "channel receive", "calls drain: channel send", ...
	BlockDetail string

	// CtxParam is the first parameter of type context.Context, nil if none.
	CtxParam *types.Var
	// UsesCtx: the context parameter is referenced somewhere in the body
	// (threaded into a call, selected on, checked, or stored).
	UsesCtx bool
}

// RecvFacts returns the facts for the method receiver.
func (s *Summary) RecvFacts() ParamFacts {
	if s.recv == nil {
		return 0
	}
	return s.facts[s.recv]
}

// ArgFacts returns the facts for the parameter bound to the i'th call
// argument (0-based, receiver not counted). Arguments past a variadic
// function's last parameter collapse onto that parameter.
func (s *Summary) ArgFacts(i int) ParamFacts {
	if len(s.params) == 0 {
		return 0
	}
	if i >= len(s.params) {
		i = len(s.params) - 1
	}
	return s.facts[s.params[i]]
}

// paramFact reports whether v is a parameter/receiver of this summary and
// returns its facts.
func (s *Summary) paramFact(v *types.Var) (ParamFacts, bool) {
	if v == nil {
		return 0, false
	}
	if v == s.recv {
		return s.facts[v], true
	}
	for _, p := range s.params {
		if p == v {
			return s.facts[v], true
		}
	}
	return 0, false
}

func (s *Summary) addFact(v *types.Var, f ParamFacts) bool {
	if v == nil {
		return false
	}
	if s.facts[v]&f == f {
		return false
	}
	s.facts[v] |= f
	return true
}

// FuncInfo is one node of the module call graph.
type FuncInfo struct {
	Obj     *types.Func
	Decl    *ast.FuncDecl
	Pkg     *Package
	Summary Summary

	calls []callRec
}

// callRec records one static call site for the fixpoint fold: which
// module-internal function is called, and which of the caller's
// parameters/receiver alias the receiver and argument roots.
type callRec struct {
	callee   *types.Func
	recvRoot *types.Var
	argRoots []*types.Var
	inLit    bool
}

// Interproc is the queryable result of the module-wide summary computation.
type Interproc struct {
	fset  *token.FileSet
	funcs map[*types.Func]*FuncInfo
}

// FuncOf returns the call-graph node for a declared module function, nil
// for functions outside the module (stdlib) or dynamic callees.
func (ip *Interproc) FuncOf(obj *types.Func) *FuncInfo {
	if ip == nil || obj == nil {
		return nil
	}
	return ip.funcs[obj.Origin()]
}

// SummaryOf returns the summary for a declared module function.
func (ip *Interproc) SummaryOf(obj *types.Func) (*Summary, bool) {
	fi := ip.FuncOf(obj)
	if fi == nil {
		return nil, false
	}
	return &fi.Summary, true
}

// StaticCallee resolves a call expression to the module function it
// invokes, nil when the callee is dynamic (function value, interface
// method) or lives outside the module.
func (ip *Interproc) StaticCallee(info *types.Info, call *ast.CallExpr) *FuncInfo {
	return ip.FuncOf(calleeObj(info, call))
}

// calleeObj resolves the static *types.Func a call invokes, generic origins
// included; nil for dynamic calls.
func calleeObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	case *ast.IndexExpr: // explicit generic instantiation
		if c, ok := unwrapIndexFun(fn.X); ok {
			id = c
		}
	case *ast.IndexListExpr:
		if c, ok := unwrapIndexFun(fn.X); ok {
			id = c
		}
	}
	if id == nil {
		return nil
	}
	obj, ok := info.ObjectOf(id).(*types.Func)
	if !ok || obj == nil {
		return nil
	}
	return obj.Origin()
}

func unwrapIndexFun(e ast.Expr) (*ast.Ident, bool) {
	switch fn := ast.Unparen(e).(type) {
	case *ast.Ident:
		return fn, true
	case *ast.SelectorExpr:
		return fn.Sel, true
	}
	return nil, false
}

// BuildInterproc computes the call graph and function summaries for every
// package of the module. Packages are already in dependency order; within
// mutually recursive functions the monotone facts are iterated to fixpoint
// over the call-graph SCCs, so the result is deterministic regardless of
// declaration order.
func BuildInterproc(m *Module) *Interproc {
	ip := &Interproc{fset: m.Fset, funcs: map[*types.Func]*FuncInfo{}}
	var order []*FuncInfo // declaration order: deterministic
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || obj == nil {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				ip.funcs[obj] = fi
				order = append(order, fi)
			}
		}
	}
	for _, fi := range order {
		collectIntra(fi)
	}
	for _, scc := range sccOrder(ip, order) {
		// Callee-first SCC order: facts below this component are final, so
		// one fold suffices unless the component is mutually recursive.
		for changed := true; changed; {
			changed = false
			for _, fi := range scc {
				if foldCalls(ip, fi) {
					changed = true
				}
			}
		}
	}
	return ip
}

// sccOrder groups the call graph into strongly connected components in
// callee-first (reverse topological) order, via Tarjan's algorithm.
func sccOrder(ip *Interproc, order []*FuncInfo) [][]*FuncInfo {
	index := map[*FuncInfo]int{}
	low := map[*FuncInfo]int{}
	onStack := map[*FuncInfo]bool{}
	var stack []*FuncInfo
	var sccs [][]*FuncInfo
	next := 0

	var strongconnect func(fi *FuncInfo)
	strongconnect = func(fi *FuncInfo) {
		index[fi] = next
		low[fi] = next
		next++
		stack = append(stack, fi)
		onStack[fi] = true
		for _, rec := range fi.calls {
			callee := ip.funcs[rec.callee]
			if callee == nil {
				continue
			}
			if _, seen := index[callee]; !seen {
				strongconnect(callee)
				if low[callee] < low[fi] {
					low[fi] = low[callee]
				}
			} else if onStack[callee] && index[callee] < low[fi] {
				low[fi] = index[callee]
			}
		}
		if low[fi] == index[fi] {
			var scc []*FuncInfo
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc = append(scc, top)
				if top == fi {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, fi := range order {
		if _, seen := index[fi]; !seen {
			strongconnect(fi)
		}
	}
	return sccs
}

// foldCalls merges callee summaries into fi's summary, returning whether
// any fact changed (the fixpoint driver).
func foldCalls(ip *Interproc, fi *FuncInfo) bool {
	s := &fi.Summary
	changed := false
	for _, rec := range fi.calls {
		callee := ip.funcs[rec.callee]
		if callee == nil {
			continue
		}
		cs := &callee.Summary
		name := rec.callee.Name()
		if cs.Blocks && !rec.inLit && !s.Blocks {
			s.Blocks = true
			s.BlockDetail = "calls " + name + ": " + cs.BlockDetail
			changed = true
		}
		if rec.recvRoot != nil {
			if _, ok := s.paramFact(rec.recvRoot); ok {
				if f := cs.RecvFacts(); f != 0 && s.addFact(rec.recvRoot, f) {
					changed = true
				}
			}
		}
		for i, root := range rec.argRoots {
			if root == nil {
				continue
			}
			if _, ok := s.paramFact(root); !ok {
				continue
			}
			if f := cs.ArgFacts(i); f != 0 && s.addFact(root, f) {
				changed = true
			}
		}
	}
	return changed
}

// sharedRootType reports whether writes through a value of type t are
// visible to other holders of the same value: pointers, slices, maps and
// channels share their referent; plain structs and scalars are copies.
func sharedRootType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// collectIntra computes the intraprocedural facts and call records of one
// function declaration.
func collectIntra(fi *FuncInfo) {
	info := fi.Pkg.Info
	s := &fi.Summary
	s.facts = map[*types.Var]ParamFacts{}
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) == 1 && len(fi.Decl.Recv.List[0].Names) == 1 {
		if v, ok := info.Defs[fi.Decl.Recv.List[0].Names[0]].(*types.Var); ok {
			s.recv = v
		}
	}
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			for _, name := range field.Names {
				v, ok := info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				s.params = append(s.params, v)
				if s.CtxParam == nil && isContextType(v.Type()) {
					s.CtxParam = v
				}
			}
		}
	}

	isParam := func(v *types.Var) bool {
		if v == nil {
			return false
		}
		_, ok := s.paramFact(v)
		return ok
	}
	rootVar := func(e ast.Expr) *types.Var {
		id := rootIdent(e)
		if id == nil {
			return nil
		}
		v, _ := info.ObjectOf(id).(*types.Var)
		return v
	}
	// argRoot unwraps &x and slicings so bump(&sum) binds to sum.
	argRoot := func(e ast.Expr) *types.Var {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		if sl, ok := e.(*ast.SliceExpr); ok {
			e = sl.X
		}
		return rootVar(e)
	}
	isGlobal := func(v *types.Var) bool {
		return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
	}
	markEscape := func(e ast.Expr, facts ParamFacts) {
		e = ast.Unparen(e)
		// The result of append lands wherever the expression does, and so
		// do the appended values: global = append(global, p) publishes p.
		if call, ok := e.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					for _, a := range call.Args {
						if v := argRoot(a); isParam(v) {
							s.addFact(v, facts)
						}
					}
					return
				}
			}
		}
		if v := argRoot(e); isParam(v) {
			s.addFact(v, facts)
		}
	}
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncLit:
				// The literal's body contributes facts (a captured context
				// counts as used), but not Blocks: closures run on whichever
				// goroutine eventually invokes them.
				walk(node.Body, true)
				return false
			case *ast.Ident:
				if s.CtxParam != nil && !s.UsesCtx {
					if v, _ := info.ObjectOf(node).(*types.Var); v == s.CtxParam {
						s.UsesCtx = true
					}
				}
			case *ast.AssignStmt:
				// Storing a parameter anywhere but a plain local variable
				// publishes it; the landing site grades the escape.
				var pub ParamFacts
				for _, lhs := range node.Lhs {
					if isGlobal(rootVar(lhs)) {
						pub |= ParamEscapes | ParamRetained | ParamToGlobal
					} else if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
						pub |= ParamEscapes | ParamRetained
					}
				}
				if pub != 0 {
					for _, rhs := range node.Rhs {
						markEscape(rhs, pub)
					}
				}
			case *ast.SendStmt:
				if !inLit && !s.Blocks {
					s.Blocks = true
					s.BlockDetail = "channel send"
				}
				markEscape(node.Value, ParamEscapes|ParamRetained)
			case *ast.UnaryExpr:
				if node.Op == token.ARROW && !inLit && !s.Blocks {
					s.Blocks = true
					s.BlockDetail = "channel receive"
				}
			case *ast.SelectStmt:
				if !inLit && !s.Blocks && !selectHasDefault(node) {
					s.Blocks = true
					s.BlockDetail = "select"
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[node.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && !inLit && !s.Blocks {
						s.Blocks = true
						s.BlockDetail = "range over channel"
					}
				}
			case *ast.ReturnStmt:
				// Returning hands custody back to the caller: an escape,
				// but not a retention.
				for _, res := range node.Results {
					markEscape(res, ParamEscapes)
				}
			case *ast.CompositeLit:
				for _, elt := range node.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					markEscape(elt, ParamEscapes|ParamRetained)
				}
			case *ast.GoStmt:
				for _, arg := range node.Call.Args {
					if v := argRoot(arg); isParam(v) {
						s.addFact(v, ParamToGoroutine)
					}
				}
			case *ast.CallExpr:
				callIntra(fi, node, inLit, isParam, argRoot, rootVar)
			}
			return true
		})
	}
	walk(fi.Decl.Body, false)
}

// callIntra records one call site's contribution: Blocks facts for rdd and
// pipeline actions, escape facts for external callees, and a callRec edge
// for module-internal callees.
func callIntra(fi *FuncInfo, call *ast.CallExpr, inLit bool,
	isParam func(*types.Var) bool, argRoot func(ast.Expr) *types.Var, rootVar func(ast.Expr) *types.Var) {
	info := fi.Pkg.Info
	s := &fi.Summary
	if name, pkg, ok := pkgCallee(info, call); ok && rddActions[name] && !inLit && !s.Blocks {
		switch pkg {
		case "rdd":
			s.Blocks = true
			s.BlockDetail = "rdd action " + name
		case "pipeline":
			s.Blocks = true
			s.BlockDetail = "pipeline." + name
		}
	}
	// A release-method call on the parameter itself (not on one of its
	// fields) records ParamReleased: `func drop(c *Conn) { c.Close() }`
	// releases its argument wherever it is called from.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && releaseMethods[sel.Sel.Name] {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if v, _ := info.ObjectOf(id).(*types.Var); isParam(v) {
				s.addFact(v, ParamReleased)
			}
		}
	}
	obj := calleeObj(info, call)
	if obj == nil {
		// Dynamic callee: conservatively treat reference-typed parameter
		// arguments as escaping.
		for _, arg := range call.Args {
			if v := argRoot(arg); isParam(v) && sharedRootType(v.Type()) {
				s.addFact(v, ParamEscapes)
			}
		}
		return
	}
	rec := callRec{callee: obj, inLit: inLit}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selObj, ok := info.ObjectOf(sel.Sel).(*types.Func); ok && selObj != nil {
			if sig, ok := selObj.Type().(*types.Signature); ok && sig.Recv() != nil {
				rec.recvRoot = rootVar(sel.X)
			}
		}
	}
	for _, arg := range call.Args {
		rec.argRoots = append(rec.argRoots, argRoot(arg))
	}
	fi.calls = append(fi.calls, rec)
	if obj.Pkg() == nil || fi.Pkg.Types == nil {
		return
	}
	modPath := modulePathOf(fi.Pkg)
	if modPath == "" || !samePathPrefix(obj.Pkg().Path(), modPath) {
		// External callee (stdlib): a reference-typed parameter handed to
		// unknown code must be assumed retained.
		for _, root := range rec.argRoots {
			if isParam(root) && sharedRootType(root.Type()) {
				s.addFact(root, ParamEscapes)
			}
		}
	}
}

// modulePathOf derives the module path from a package's import path and
// its position in the module (Path always has the module path as prefix).
func modulePathOf(pkg *Package) string {
	return pkg.modPath
}

func samePathPrefix(p, prefix string) bool {
	return p == prefix || (len(p) > len(prefix) && p[:len(prefix)] == prefix && p[len(prefix)] == '/')
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

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
