package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// frameContract is the invariant the frameimmut analyzer enforces, quoted in
// findings (DESIGN.md "Frame immutability").
const frameContract = "a *frame.Frame is immutable once published: batches are shared by downstream partitions, the plan cache, and in-flight streams without copies or locks"

// FrameImmutAnalyzer flags writes to frame.Frame/Column storage — column
// payload vectors, presence bitmaps, hash vectors — after the frame has
// been published (returned from a builder/constructor call, received as a
// parameter, captured by a closure, or stored). In-place mutation is only
// legal on storage the current function freshly allocated and has not yet
// published. The check is interprocedural: passing a published frame (or
// one of its live payload slices) to a helper whose summary mutates that
// parameter is flagged at the call site, and aliasing through slices
// captured by closures handed to rdd.ExchangePartitions/ZipPartitions is
// flagged inside the closure.
func FrameImmutAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "frameimmut",
		Doc: "no writes to frame.Frame/Column payload vectors, presence bitmaps, " +
			"or hash vectors after the frame is frozen/published (Builder.Freeze, " +
			"constructor return, parameter, capture); mutation helpers are found " +
			"through function summaries; " + frameContract + ".",
		Run: runFrameImmut,
	}
}

func runFrameImmut(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFrameFn(pass, fd)
			}
		}
	}
}

// frameDataName resolves t (through pointers, slices and arrays) to a named
// type declared in a package named "frame" and returns its name.
func frameDataName(t types.Type) (string, bool) {
	for {
		switch u := types.Unalias(t).(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		case *types.Named:
			pkg := u.Obj().Pkg()
			if pkg != nil && pkg.Name() == "frame" {
				return u.Obj().Name(), true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// isFrameData reports whether t stores frame data whose mutation the
// invariant forbids (Frame or Column, directly or via pointer/slice).
func isFrameData(t types.Type) bool {
	name, ok := frameDataName(t)
	return ok && (name == "Frame" || name == "Column")
}

// isFrameBuilder reports whether t is the frame Builder (pre-freeze
// accumulation, which owns its storage and may write freely).
func isFrameBuilder(t types.Type) bool {
	name, ok := frameDataName(t)
	return ok && name == "Builder"
}

// frameFnState is the per-function-declaration publication analysis.
type frameFnState struct {
	pass *Pass
	info *types.Info
	decl *ast.FuncDecl
	// pubPos records, per frame-typed local, the earliest source position
	// at which the value is published (escapes the function's private
	// ownership). Locals born from call results, parameters, captures and
	// range elements are published from their declaration.
	pubPos map[*types.Var]token.Pos
	// defined marks vars introduced by := / var / range inside this decl;
	// frame-typed vars inside the body that are NOT in this set are
	// function-literal parameters (published by definition).
	defined map[*types.Var]bool
	// accessorLocals maps a reference-typed local bound to a payload
	// accessor result (fs := col.Floats()) to that accessor call: an index
	// write through the local lands in the frame's live payload.
	accessorLocals map[*types.Var]*ast.CallExpr
}

func checkFrameFn(pass *Pass, fd *ast.FuncDecl) {
	st := &frameFnState{
		pass:           pass,
		info:           pass.Pkg.Info,
		decl:           fd,
		pubPos:         map[*types.Var]token.Pos{},
		defined:        map[*types.Var]bool{},
		accessorLocals: map[*types.Var]*ast.CallExpr{},
	}
	st.collectPublications()
	st.checkWrites()
}

// localFrameVar resolves e's root identifier to a frame-data-typed variable
// declared inside this function declaration.
func (st *frameFnState) localFrameVar(e ast.Expr) *types.Var {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	v, ok := st.info.ObjectOf(id).(*types.Var)
	if !ok || v == nil || !isFrameData(v.Type()) {
		return nil
	}
	if v.Pos() < st.decl.Pos() || v.Pos() > st.decl.End() {
		return nil
	}
	return v
}

// publish records a publication event, keeping the earliest position.
func (st *frameFnState) publish(v *types.Var, pos token.Pos) {
	if v == nil {
		return
	}
	if old, ok := st.pubPos[v]; !ok || pos < old {
		st.pubPos[v] = pos
	}
}

// freshExpr reports whether an initializer yields storage this function
// privately owns: composite literals, make/new, conversions and appends of
// fresh values. Call results, parameters, captures, loads from fields or
// elements are all published-born — some other owner may hold an alias.
func (st *frameFnState) freshExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return st.freshExpr(x.X)
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			switch b, _ := st.info.ObjectOf(id).(*types.Builtin); {
			case b != nil && (b.Name() == "make" || b.Name() == "new"):
				return true
			case b != nil && b.Name() == "append":
				return len(x.Args) > 0 && st.freshLocalOrSelf(x.Args[0])
			}
			// A conversion Column(x) keeps x's ownership.
			if tn, ok := st.info.ObjectOf(id).(*types.TypeName); ok && tn != nil {
				return len(x.Args) == 1 && st.freshExpr(x.Args[0])
			}
		}
	}
	return false
}

// freshLocalOrSelf reports whether e is a still-unpublished local or a
// fresh expression (the append-grows-own-slice idiom).
func (st *frameFnState) freshLocalOrSelf(e ast.Expr) bool {
	if v := st.localFrameVar(e); v != nil {
		if _, published := st.pubPos[v]; !published {
			return true
		}
		return false
	}
	return st.freshExpr(e)
}

// collectPublications walks the body once, classifying every frame-typed
// local as fresh or published and recording publication positions.
func (st *frameFnState) collectPublications() {
	info := st.info
	ast.Inspect(st.decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					// Storing into a field/element/global publishes any
					// frame mentioned on the matching RHS.
					if i < len(node.Rhs) {
						st.publishMentioned(node.Rhs[i])
					}
					continue
				}
				v, _ := info.ObjectOf(id).(*types.Var)
				if v == nil {
					continue
				}
				if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					// Assigning to a package-level variable publishes the
					// matching RHS frames.
					if i < len(node.Rhs) {
						st.publishMentioned(node.Rhs[i])
					}
					continue
				}
				if node.Tok == token.DEFINE {
					st.defined[v] = true
					if len(node.Lhs) == len(node.Rhs) {
						st.bindAccessor(v, node.Rhs[i])
					}
				}
				if !isFrameData(v.Type()) {
					continue
				}
				switch {
				case len(node.Rhs) == 1 && len(node.Lhs) > 1:
					// Multi-value: v, err := f() — call-born, published.
					st.publish(v, node.Pos())
				case i < len(node.Rhs) && st.freshExpr(node.Rhs[i]):
					// Fresh storage: private until a publication event.
				default:
					st.publish(v, node.Pos())
				}
			}
		case *ast.DeclStmt:
			if gd, ok := node.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						v, _ := info.Defs[name].(*types.Var)
						if v == nil {
							continue
						}
						st.defined[v] = true
						if i < len(vs.Values) {
							st.bindAccessor(v, vs.Values[i])
						}
						if isFrameData(v.Type()) && i < len(vs.Values) && !st.freshExpr(vs.Values[i]) {
							st.publish(v, vs.Pos())
						}
						// var x Column (zero value) is fresh.
					}
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{node.Key, node.Value} {
				if e == nil {
					continue
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					if v, _ := info.ObjectOf(id).(*types.Var); v != nil {
						st.defined[v] = true
						if isFrameData(v.Type()) {
							// A range element aliases the ranged storage.
							st.publish(v, node.Pos())
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				st.publishMentioned(res)
			}
		case *ast.SendStmt:
			st.publishMentioned(node.Value)
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				st.publishMentioned(elt)
			}
		case *ast.CallExpr:
			st.publishCallArgs(node)
		case *ast.FuncLit:
			// Capture: every frame local referenced inside the literal is
			// published at the literal (it may run later, elsewhere).
			ast.Inspect(node.Body, func(cn ast.Node) bool {
				if id, ok := cn.(*ast.Ident); ok {
					if v, _ := info.ObjectOf(id).(*types.Var); v != nil && isFrameData(v.Type()) {
						if v.Pos() < node.Pos() || v.Pos() > node.End() {
							st.publish(v, node.Pos())
						}
					}
				}
				return true
			})
		}
		return true
	})
}

// bindAccessor records v as an alias of a frame's live payload when its
// initializer is a payload accessor chain and v shares its referent (a
// slice, not a copied scalar element).
func (st *frameFnState) bindAccessor(v *types.Var, init ast.Expr) {
	if acc, _, ok := payloadAccessorChain(st.info, init); ok && sharedRootType(v.Type()) {
		st.accessorLocals[v] = acc
	}
}

// accessorAlias returns the accessor call behind an index write through a
// local bound to a payload accessor result (fs[b] = x after
// fs := col.Floats()), nil otherwise.
func (st *frameFnState) accessorAlias(lhs ast.Expr) *ast.CallExpr {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return nil
	}
	id := rootIdent(ix.X)
	if id == nil {
		return nil
	}
	v, _ := st.info.ObjectOf(id).(*types.Var)
	return st.accessorLocals[v]
}

// publishMentioned publishes every frame-typed local mentioned in e.
func (st *frameFnState) publishMentioned(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // captures are handled at the literal itself
		}
		if id, ok := n.(*ast.Ident); ok {
			if v := st.localFrameVar(id); v != nil {
				st.publish(v, id.Pos())
			}
		}
		return true
	})
}

// publishCallArgs publishes frame locals passed to calls that may retain
// them. Module-internal callees whose summary shows the parameter neither
// escapes, mutates, nor flows to a goroutine are pure readers and do not
// publish; builtins len/cap/copy read only; everything else (external or
// dynamic callees, append into another slice) is conservatively a
// publication.
func (st *frameFnState) publishCallArgs(call *ast.CallExpr) {
	info := st.info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, _ := info.ObjectOf(id).(*types.Builtin); b != nil {
			switch b.Name() {
			case "len", "cap", "copy", "delete", "clear":
				return
			case "append":
				for _, arg := range call.Args[1:] {
					st.publishMentioned(arg)
				}
				return
			}
		}
	}
	var sum *Summary
	if fi := st.pass.IP.StaticCallee(info, call); fi != nil {
		sum = &fi.Summary
	}
	// Mutation by a callee does not publish — a builder-phase helper may
	// legitimately fill a still-private frame's vectors (checkCall flags
	// mutation of frames that are already published). Only retention
	// (escape, goroutine capture) transfers ownership.
	const retains = ParamEscapes | ParamToGoroutine | ParamCaptured
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sum == nil || sum.RecvFacts()&retains != 0 {
			st.publishMentioned(sel.X)
		}
	}
	for i, arg := range call.Args {
		if sum != nil && sum.ArgFacts(i)&retains == 0 {
			continue
		}
		st.publishMentioned(arg)
	}
}

// published reports whether the frame value rooted at root was published
// before pos: parameters, receivers, captures, globals and accessor chains
// always are; locals only after their recorded publication event.
func (st *frameFnState) published(root ast.Expr, pos token.Pos) (string, bool) {
	id := rootIdent(root)
	if id == nil {
		// No identifier root: the chain starts at a call result
		// (f.Col(...).Ints()...) — published storage by definition.
		return "storage reached through a call result", true
	}
	v, ok := st.info.ObjectOf(id).(*types.Var)
	if !ok || v == nil {
		return "", false
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return "package-level frame state", true
	}
	if v.Pos() < st.decl.Pos() || v.Pos() > st.decl.End() {
		return "captured frame \"" + v.Name() + "\"", true
	}
	if !st.defined[v] {
		// Inside this declaration but never defined by :=/var/range: a
		// parameter of the declaration or of a nested function literal.
		return "parameter \"" + v.Name() + "\"", true
	}
	if pub, ok := st.pubPos[v]; ok && pos > pub {
		return "\"" + v.Name() + "\" (published at an earlier statement)", true
	}
	return "", false
}

// checkWrites reports mutation of published frame storage: direct writes,
// writes through payload accessors, and summary-mediated writes by callees.
func (st *frameFnState) checkWrites() {
	info := st.info
	// parallelLit tracks the innermost function literal passed to the
	// batch-exchange primitives, for the aliasing finding's message.
	var checkNode func(n ast.Node, parallel string)
	checkNode = func(n ast.Node, parallel string) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if pkg, name, ok := parallelCallee(info, node); ok && pkg == "rdd" &&
					(name == "ExchangePartitions" || name == "ZipPartitions") {
					for _, arg := range node.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkNode(lit.Body, "rdd."+name)
						}
					}
					// Non-literal args still need the call-mediated check.
					st.checkCall(node, parallel)
					return false
				}
				st.checkCall(node, parallel)
			case *ast.AssignStmt:
				if node.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range node.Lhs {
					st.checkWrite(lhs, node.Pos(), parallel)
				}
			case *ast.IncDecStmt:
				st.checkWrite(node.X, node.Pos(), parallel)
			}
			return true
		})
	}
	checkNode(st.decl.Body, "")
}

// chainHasFrameData reports whether any sub-expression along the selector/
// index chain of lhs is frame data, and returns the accessor call if the
// chain passes through one.
func (st *frameFnState) chainHasFrameData(lhs ast.Expr) (accessor *ast.CallExpr, has bool) {
	e := lhs
	for {
		if tv, ok := st.info.Types[e]; ok && isFrameData(tv.Type) {
			has = true
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			// Writing into an accessor result (f.Ints()[i] = x): record
			// and keep walking through the receiver.
			if recv, ok := frameAccessor(st.info, x); ok {
				accessor = x
				e = recv
				continue
			}
			return accessor, has
		default:
			return accessor, has
		}
	}
}

// frameAccessor reports whether call is a method call on frame data (the
// live-payload accessors Ints/Floats/Strs/... or Col/ColAt) and returns the
// receiver expression.
func frameAccessor(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	obj, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || obj == nil {
		return nil, false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isFrameData(sig.Recv().Type()) {
		return nil, false
	}
	return sel.X, true
}

// checkWrite flags one assignment target if it mutates published frame
// storage.
func (st *frameFnState) checkWrite(lhs ast.Expr, pos token.Pos, parallel string) {
	lhs = ast.Unparen(lhs)
	if _, ok := lhs.(*ast.Ident); ok {
		return // rebinding a variable is not a storage write
	}
	accessor, has := st.chainHasFrameData(lhs)
	if !has {
		if accessor = st.accessorAlias(lhs); accessor == nil {
			return
		}
	}
	root := rootIdent(lhs)
	if root != nil {
		if v, _ := st.info.ObjectOf(root).(*types.Var); v != nil {
			if isFrameBuilder(v.Type()) {
				return // builders own their cells until Freeze/Finish
			}
			if !sharedWritePath(lhs, v.Type()) {
				return // field assign on a value copy stays private
			}
		}
	}
	if accessor != nil {
		st.pass.Reportf(pos, "writes into the live payload returned by frame accessor %s — %s",
			types.ExprString(accessor.Fun), frameContract)
		return
	}
	who, pub := st.published(lhs, pos)
	if !pub {
		return
	}
	if parallel != "" {
		st.pass.Reportf(pos, "closure passed to %s writes frame storage through %s — batch partitions alias the same columns, so this is a cross-partition data race; %s",
			parallel, who, frameContract)
		return
	}
	st.pass.Reportf(pos, "writes frame storage through %s after publication — %s", who, frameContract)
}

// checkCall flags calls that hand published frame storage to a callee whose
// summary mutates the corresponding parameter — the violation is invisible
// without the interprocedural layer.
func (st *frameFnState) checkCall(call *ast.CallExpr, parallel string) {
	fi := st.pass.IP.StaticCallee(st.info, call)
	if fi == nil {
		return
	}
	sum := &fi.Summary
	report := func(argExpr ast.Expr, who string) {
		prefix := ""
		if parallel != "" {
			prefix = "closure passed to " + parallel + " "
		}
		st.pass.Reportf(call.Pos(), "%spasses %s to %s, which mutates it (function summary) — %s",
			prefix, who, fi.Obj.Name(), frameContract)
		_ = argExpr
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sum.RecvFacts()&ParamMutated != 0 {
		if tv, ok := st.info.Types[sel.X]; ok && isFrameData(tv.Type) && !isFrameBuilder(tv.Type) {
			if who, pub := st.published(sel.X, call.Pos()); pub {
				report(sel.X, "published frame receiver ("+who+")")
			}
		}
	}
	for i, arg := range call.Args {
		if sum.ArgFacts(i)&ParamMutated == 0 {
			continue
		}
		arg = ast.Unparen(arg)
		if tv, ok := st.info.Types[arg]; ok && isFrameData(tv.Type) {
			if who, pub := st.published(arg, call.Pos()); pub {
				report(arg, "published frame ("+who+")")
			}
			continue
		}
		// A live payload slice obtained from a frame accessor
		// (fr.Cells(), f.Col("x").Ints()) is published frame storage
		// even though its own type is a plain slice.
		if acc, recv, ok := payloadAccessorChain(st.info, arg); ok {
			if _, pub := st.published(recv, call.Pos()); pub {
				report(arg, "the live payload slice "+types.ExprString(acc))
			}
		}
	}
}

// payloadAccessorChain recognizes an argument expression that is (or
// indexes/slices into) the result of a frame accessor method, returning the
// accessor expression and the frame receiver it was called on.
func payloadAccessorChain(info *types.Info, e ast.Expr) (*ast.CallExpr, ast.Expr, bool) {
	e = ast.Unparen(e)
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
			continue
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			if recv, ok := frameAccessor(info, x); ok {
				return x, recv, true
			}
			return nil, nil, false
		default:
			return nil, nil, false
		}
	}
}
