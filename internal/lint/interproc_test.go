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

	// cache.closeQuiet releases its parameter (leakcheck's interprocedural
	// hook) but does not block; handshake uses its conn without releasing
	// it.
	closeQuiet := lookupFunc(t, m, ip, "cache", "closeQuiet")
	if closeQuiet.Summary.ArgFacts(0)&ParamReleased == 0 {
		t.Error("closeQuiet: parameter 0 should carry ParamReleased")
	}
	if closeQuiet.Summary.Blocks {
		t.Error("closeQuiet: should not block")
	}
	if lookupFunc(t, m, ip, "cache", "handshake").Summary.ArgFacts(0)&ParamReleased != 0 {
		t.Error("handshake: parameter 0 should not carry ParamReleased")
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
}

// TestInterprocStaticCallee checks call-graph node lookup through the
// generic-origin path and that dynamic callees resolve to nil.
func TestInterprocStaticCallee(t *testing.T) {
	m := loadFixture(t, "src")
	ip := BuildInterproc(m)
	if ip.FuncOf(nil) != nil {
		t.Error("FuncOf(nil) should be nil")
	}
	fi := lookupFunc(t, m, ip, "cache", "CleanHelperClose")
	found := false
	for _, rec := range fi.calls {
		if rec.callee.Name() == "closeQuiet" {
			found = true
		}
	}
	if !found {
		t.Error("CleanHelperClose should record a call edge to closeQuiet")
	}
}
