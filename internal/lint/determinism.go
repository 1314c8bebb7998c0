package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPackages are the package-path segments whose code forms the
// reproducible derivation core: a stored derivation sequence replayed over
// the same inputs must produce bit-for-bit identical results (§5.4).
var deterministicPackages = map[string]bool{
	"derive":    true,
	"engine":    true,
	"semantics": true,
	"pipeline":  true,
	"dataset":   true,
	"frame":     true, // columnar kernels feed the same replayable sequences
	"stats":     true, // the statistics store steers plan choice; its encode/epoch logic must replay identically
}

// randConstructors are math/rand package-level functions that build seeded
// generators rather than drawing from the global (racily seeded) source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true,
	"NewZipf": true, "NewChaCha8": true,
}

// DeterminismAnalyzer flags nondeterminism in the derivation core: wall-clock
// reads, draws from the global math/rand source, and map iteration leaking
// into ordered output without a sort. Any of these breaks the paper's
// replayable-derivation-sequence guarantee (§5.4): the same stored sequence
// would produce different bytes on different runs.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		AppliesTo: func(pkg *Package) bool {
			return deterministicPackages[pathBase(pkg.Path)] || deterministicPackages[pkg.Name]
		},
		Run: runDeterminism,
	}
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		f := file
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, info, node)
			case *ast.RangeStmt:
				checkMapRangeOrder(pass, f, info, node)
			}
			return true
		})
	}
}

// checkNondetCall flags time.Now and global math/rand draws.
func checkNondetCall(pass *Pass, info *types.Info, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if obj == nil || !ok || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" {
			pass.Reportf(call.Pos(), "calls time.Now: derivation results must be reproducible across replays (§5.4); inject a clock or pass timestamps in as data")
		}
	case "math/rand", "math/rand/v2":
		// Methods on a *rand.Rand built from an explicit seed are fine;
		// package-level draws use the shared, unseeded global source.
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() == nil && !randConstructors[obj.Name()] {
			pass.Reportf(call.Pos(), "draws from the global math/rand source via rand.%s: derivations must be deterministic (§5.4); use rand.New with a fixed seed", obj.Name())
		}
	}
}

// checkMapRangeOrder flags `for k := range m { out = append(out, ...) }`
// where out is declared outside the loop and never passed to a sort in the
// enclosing function: Go map iteration order is randomized, so the append
// order leaks nondeterminism into the output.
func checkMapRangeOrder(pass *Pass, file *ast.File, info *types.Info, rng *ast.RangeStmt) {
	tv, ok := info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	body := enclosingFuncBody(file, rng.Pos())
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fn.Name != "append" {
			return true
		}
		if b, ok := info.ObjectOf(fn).(*types.Builtin); !ok || b == nil {
			return true
		}
		target, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.ObjectOf(target).(*types.Var)
		if !ok || v == nil {
			return true
		}
		// A slice accumulated within the loop body itself is per-iteration
		// state; only slices outliving the loop carry the order out.
		if v.Pos() >= rng.Pos() && v.Pos() <= rng.End() {
			return true
		}
		if body != nil && sortedInFunc(info, body, v) {
			return true
		}
		pass.Reportf(assign.Pos(), "appends to %q while iterating a map: map iteration order is randomized, so the output order is nondeterministic and breaks reproducible derivation sequences (§5.4); sort %q before it is consumed", v.Name(), v.Name())
		return true
	})
}

// sortedInFunc reports whether the function body contains a call into the
// sort or slices packages that mentions v anywhere in its arguments (e.g.
// sort.Strings(out), sort.Slice(out, ...), slices.SortFunc(out, ...)).
func sortedInFunc(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := info.ObjectOf(sel.Sel)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && info.ObjectOf(id) == v {
					found = true
					return false
				}
				return true
			})
		}
		return true
	})
	return found
}
