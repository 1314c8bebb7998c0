package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hot-path reachability: the serving path must stay allocation-free
// (ROADMAP: "close the vectorization gap and make the serving path
// allocation-free"), so the hotalloc/retain analyzers need to know which
// functions execute per row or per query. Roots are built in — the
// vectorized operators in internal/derive, the frame kernels, the rdd task
// bodies, and the server's streaming path — and extensible with a
//
//	//sjvet:hotpath [-- reason]
//
// directive: on (or directly above) a function declaration it roots that
// function; on a statement it roots every module function referenced on
// that line or the next — a call, a function value, or a bound method value
// (the underlying func, not just the wrapper) — scoped like //sjvet:ignore
// to the innermost enclosing function body. The hot set is the closure of
// the roots over the static call graph, including calls made from function
// literals the hot function constructs (a closure built on the hot path
// runs on the hot path).

const hotpathDirective = "sjvet:hotpath"

// hotRoots lists the built-in root functions by package basename. Derive's
// roots are selected by file instead (every columnar operator file).
var hotRoots = map[string]map[string]bool{
	"frame": {
		"HashOn": true, "MaskRows": true, "MaskValues": true,
		"Convert": true, "ConvertColumn": true,
		"AppendRowJSON": true, "EncodedKeys": true,
	},
	"rdd": {
		"materialize": true, "runTasks": true, "runTimed": true,
		"ExchangePartitions": true, "ZipPartitions": true,
		"exchangeByKey": true,
	},
	"server": {
		"execStream": true, "streamFrameRows": true,
	},
	"shuffle": {
		"AppendFrame": true, "DecodeFrame": true,
		"AppendBatch": true, "DecodeBatch": true,
	},
}

// HotPaths is the queryable hot-function set.
type HotPaths struct {
	why map[*types.Func]string
}

// Why returns the reachability reason for a hot function ("hot-path root
// (frame kernel)", "reachable from frame.HashOn", ...), or false when the
// function is not on the hot path.
func (h *HotPaths) Why(obj *types.Func) (string, bool) {
	if h == nil || obj == nil {
		return "", false
	}
	w, ok := h.why[obj.Origin()]
	return w, ok
}

// BuildHotPaths computes the hot-function closure for the module.
func BuildHotPaths(m *Module, ip *Interproc) *HotPaths {
	h := &HotPaths{why: map[*types.Func]string{}}

	// Built-in roots, in deterministic package/file/declaration order.
	type root struct {
		fi  *FuncInfo
		why string
	}
	var roots []root
	addRoot := func(fi *FuncInfo, why string) {
		if fi == nil {
			return
		}
		if _, seen := h.why[fi.Obj]; seen {
			return
		}
		h.why[fi.Obj] = why
		roots = append(roots, root{fi, why})
	}
	for _, pkg := range m.Pkgs {
		base := pathBase(pkg.Path)
		names := hotRoots[base]
		for _, file := range pkg.Files {
			fname := pathBase(m.Fset.Position(file.Pos()).Filename)
			columnarFile := base == "derive" && strings.Contains(fname, "columnar") && !strings.HasSuffix(fname, "_test.go")
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				switch {
				case columnarFile:
					addRoot(ip.FuncOf(obj), "hot-path root (columnar operator)")
				case names != nil && names[fd.Name.Name]:
					var kind string
					switch base {
					case "frame":
						kind = "frame kernel"
					case "rdd":
						kind = "rdd task body"
					case "server":
						kind = "streaming path"
					case "shuffle":
						kind = "shuffle codec"
					}
					addRoot(ip.FuncOf(obj), "hot-path root ("+kind+")")
				}
			}
		}
	}

	// Directive roots.
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !isHotpathComment(c.Text) {
						continue
					}
					for _, obj := range resolveHotpathDirective(m.Fset, pkg, file, c) {
						addRoot(ip.FuncOf(obj), "hot-path root (//sjvet:hotpath)")
					}
				}
			}
		}
	}

	// Close over the static call graph, breadth-first from the roots in
	// discovery order. Calls recorded inside function literals count: a
	// closure constructed by hot code executes on the hot path.
	queue := make([]root, len(roots))
	copy(queue, roots)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		rootName := rootLabel(cur.fi, cur.why)
		for _, rec := range cur.fi.calls {
			callee := ip.FuncOf(rec.callee)
			if callee == nil {
				continue
			}
			if _, seen := h.why[callee.Obj]; seen {
				continue
			}
			h.why[callee.Obj] = "reachable from " + rootName
			queue = append(queue, root{callee, h.why[callee.Obj]})
		}
	}
	return h
}

// rootLabel names the root a function descends from: for a root itself,
// its own package-qualified name; for a reachable function, the root named
// in its own why-string, so the label propagates unchanged down the walk.
func rootLabel(fi *FuncInfo, why string) string {
	if rest, ok := strings.CutPrefix(why, "reachable from "); ok {
		return rest
	}
	pkgName := ""
	if fi.Obj.Pkg() != nil {
		pkgName = fi.Obj.Pkg().Name() + "."
	}
	return pkgName + fi.Obj.Name()
}

// isHotpathComment reports whether a comment is a //sjvet:hotpath
// directive; like all Go directives it must follow the comment marker
// immediately.
func isHotpathComment(text string) bool {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	if !strings.HasPrefix(text, hotpathDirective) {
		return false
	}
	rest := text[len(hotpathDirective):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t' || strings.HasPrefix(rest, "--") || strings.HasPrefix(rest, "*/")
}

// resolveHotpathDirective maps one directive comment to the functions it
// roots. Two placements:
//
//  1. On a function declaration (its doc group, or the line directly above
//     the declaration): roots that declaration.
//  2. Inside a function body: roots every module function referenced on the
//     directive's line or the line below it — including the underlying
//     func of a bound method value like s.pump — restricted, exactly like
//     //sjvet:ignore, to references whose innermost enclosing function is
//     the directive's own (a directive inside a closure does not root
//     references made by the enclosing body on an adjacent line).
func resolveHotpathDirective(fset *token.FileSet, pkg *Package, file *ast.File, c *ast.Comment) []*types.Func {
	cpos := fset.Position(c.Pos())

	// Placement 1: declaration directive.
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Doc != nil {
			for _, dc := range fd.Doc.List {
				if dc == c {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						return []*types.Func{obj}
					}
				}
			}
		}
		dline := fset.Position(fd.Pos()).Line
		if cpos.Line == dline || cpos.Line+1 == dline {
			if scopeBody := innermostFuncBody(file, c.Pos()); scopeBody == nil {
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					return []*types.Func{obj}
				}
			}
		}
	}

	// Placement 2: statement directive inside a body.
	scope := innermostFuncBody(file, c.Pos())
	if scope == nil {
		return nil
	}
	var out []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(scope, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		line := fset.Position(id.Pos()).Line
		if line != cpos.Line && line != cpos.Line+1 {
			return true
		}
		if innermostFuncBody(file, id.Pos()) != scope {
			return true
		}
		obj, ok := pkg.Info.ObjectOf(id).(*types.Func)
		if !ok || obj == nil {
			return true
		}
		obj = obj.Origin()
		if !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}
