package lint

import (
	"go/types"
	"strings"
	"testing"
)

// lookupFunc finds a declared function (or method) by package name and
// function name in the fixture module's call graph.
func lookupFunc(t *testing.T, m *Module, ip *Interproc, pkgName, fnName string) *FuncInfo {
	t.Helper()
	for _, pkg := range m.Pkgs {
		if pkg.Name != pkgName {
			continue
		}
		if obj, ok := pkg.Types.Scope().Lookup(fnName).(*types.Func); ok {
			if fi := ip.FuncOf(obj); fi != nil {
				return fi
			}
		}
		// Methods: scan the call graph for receiver methods of this package.
		for obj, fi := range ip.funcs {
			if obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == fnName {
				return fi
			}
		}
	}
	t.Fatalf("function %s.%s not found in call graph", pkgName, fnName)
	return nil
}

// TestInterprocSummaries pins the per-function dataflow facts the analyzers
// rely on, computed over the src fixture module.
func TestInterprocSummaries(t *testing.T) {
	m := loadFixture(t, "src")
	ip := BuildInterproc(m)

	// frozen.zero mutates its slice parameter (frameimmut's interprocedural
	// hook) but does not block.
	zero := lookupFunc(t, m, ip, "frozen", "zero")
	if zero.Summary.ArgFacts(0)&ParamMutated == 0 {
		t.Error("zero: parameter 0 should carry ParamMutated")
	}
	if zero.Summary.Blocks {
		t.Error("zero: should not block")
	}

	// engine: blocking facts chain through callees, and context facts
	// distinguish threaded from dropped parameters.
	waitIdle := lookupFunc(t, m, ip, "engine", "waitIdle")
	if !waitIdle.Summary.Blocks || waitIdle.Summary.BlockDetail != "channel receive" {
		t.Errorf("waitIdle: want Blocks via channel receive, got %q", waitIdle.Summary.BlockDetail)
	}
	dropped := lookupFunc(t, m, ip, "engine", "DirtyDropped")
	if !dropped.Summary.Blocks || !strings.Contains(dropped.Summary.BlockDetail, "waitIdle") {
		t.Errorf("DirtyDropped: Blocks should chain through waitIdle, got %q", dropped.Summary.BlockDetail)
	}
	if dropped.Summary.CtxParam == nil || dropped.Summary.UsesCtx {
		t.Error("DirtyDropped: should have an unused context parameter")
	}
	solve := lookupFunc(t, m, ip, "engine", "Solve")
	if solve.Summary.CtxParam == nil || !solve.Summary.UsesCtx {
		t.Error("Solve: should have a used context parameter")
	}

	// locks.notify blocks on a channel send through its receiver.
	notify := lookupFunc(t, m, ip, "locks", "notify")
	if !notify.Summary.Blocks || notify.Summary.BlockDetail != "channel send" {
		t.Errorf("notify: want Blocks via channel send, got %q", notify.Summary.BlockDetail)
	}
	depth := lookupFunc(t, m, ip, "locks", "depth")
	if depth.Summary.Blocks {
		t.Error("depth: len(chan) does not block")
	}

	// frame.Freeze lets its receiver's storage escape into the returned
	// frame; builder Append mutates the receiver.
	freeze := lookupFunc(t, m, ip, "frame", "Freeze")
	if freeze.Summary.RecvFacts()&ParamEscapes == 0 {
		t.Error("Freeze: receiver storage should escape into the result")
	}
	appendFn := lookupFunc(t, m, ip, "frame", "Append")
	if appendFn.Summary.RecvFacts()&ParamMutated == 0 {
		t.Error("Append: receiver should carry ParamMutated")
	}
}

// TestInterprocStaticCallee checks call-graph node lookup through the
// generic-origin path and that dynamic callees resolve to nil.
func TestInterprocStaticCallee(t *testing.T) {
	m := loadFixture(t, "src")
	ip := BuildInterproc(m)
	if ip.FuncOf(nil) != nil {
		t.Error("FuncOf(nil) should be nil")
	}
	fi := lookupFunc(t, m, ip, "frozen", "DirtyHelper")
	found := false
	for _, rec := range fi.calls {
		if rec.callee.Name() == "zero" {
			found = true
		}
	}
	if !found {
		t.Error("DirtyHelper should record a call edge to zero")
	}
}
