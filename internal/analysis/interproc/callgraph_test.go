package interproc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// testModule assembles finished builders into a module with nGlobals
// 64-byte closure-section globals, so globalOff proofs have regions to
// land in and MayWriteGlobals has indices to report.
func testModule(t *testing.T, nGlobals int, bs ...*ir.Builder) *ir.Module {
	t.Helper()
	m := ir.NewModule("t")
	for i := 0; i < nGlobals; i++ {
		m.AddGlobal(&ir.Global{Name: fmt.Sprintf("g%d", i), Size: 64, Section: ir.SectionClosure})
	}
	for _, b := range bs {
		f, err := b.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		if err := m.AddFunc(f); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func retConst(name string, v int64) *ir.Builder {
	b := ir.NewBuilder(name, 0)
	c := b.Const(v)
	b.Ret(c)
	return b
}

// mutualRecursionModule is target_main -> even <-> odd, plus a directly
// self-recursive loop() and an orphan() nothing calls.
func mutualRecursionModule(t *testing.T) *ir.Module {
	t.Helper()
	bm := ir.NewBuilder("target_main", 0)
	n := bm.Const(5)
	r := bm.Call("even", n)
	bm.Ret(r)

	parity := func(name, other string) *ir.Builder {
		b := ir.NewBuilder(name, 1)
		z := b.Const(0)
		c := b.Bin(ir.Eq, 0, z)
		then := b.NewBlock()
		els := b.NewBlock()
		b.CondBr(c, then, els)
		b.SetBlock(then)
		one := b.Const(1)
		b.Ret(one)
		b.SetBlock(els)
		dec := b.Const(1)
		nm1 := b.Bin(ir.Sub, 0, dec)
		r := b.Call(other, nm1)
		b.Ret(r)
		return b
	}

	bl := ir.NewBuilder("loop", 1)
	r2 := bl.Call("loop", 0)
	bl.Ret(r2)

	return testModule(t, 0, bm, parity("even", "odd"), parity("odd", "even"), bl, retConst("orphan", 0))
}

func TestCallGraphMutualRecursion(t *testing.T) {
	m := mutualRecursionModule(t)
	cg := BuildCallGraph(m)

	if got := cg.Callees["even"]; !reflect.DeepEqual(got, []string{"odd"}) {
		t.Fatalf("Callees[even] = %v", got)
	}
	if got := cg.Callers["even"]; !reflect.DeepEqual(got, []string{"odd", "target_main"}) {
		t.Fatalf("Callers[even] = %v, want sorted [odd target_main]", got)
	}
	if cg.SelfRecursive("even") || !cg.SelfRecursive("loop") {
		t.Fatalf("SelfRecursive: even=%v loop=%v", cg.SelfRecursive("even"), cg.SelfRecursive("loop"))
	}

	// The mutual-recursion pair is one SCC; every other function is a
	// singleton. Components arrive sorted by smallest member.
	want := [][]string{{"even", "odd"}, {"loop"}, {"orphan"}, {"target_main"}}
	if got := cg.SCCs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SCCs = %v, want %v", got, want)
	}

	reach := cg.Reachable("target_main")
	for _, fn := range []string{"target_main", "even", "odd"} {
		if !reach[fn] {
			t.Errorf("%s not reachable from target_main", fn)
		}
	}
	for _, fn := range []string{"loop", "orphan"} {
		if reach[fn] {
			t.Errorf("%s wrongly reachable from target_main", fn)
		}
	}
}

func TestAnalyzeMutualRecursionConverges(t *testing.T) {
	m := mutualRecursionModule(t)
	res := Analyze(m)
	// Nothing writes memory: the fixpoint over the even/odd cycle must
	// still converge to a bounded (empty) may-write set.
	if res.WholeSection {
		t.Fatal("pure mutual recursion degraded to whole-section")
	}
	if len(res.MayWriteGlobals) != 0 {
		t.Fatalf("MayWriteGlobals = %v, want empty", res.MayWriteGlobals)
	}
	// The unreachable functions are called out (CLX118), once each.
	unreach := res.Diags.ByID(analysis.IDUnreachableFn)
	if len(unreach) != 2 {
		t.Fatalf("CLX118 count = %d, want 2 (loop, orphan):\n%s", len(unreach), res.Diags)
	}
	if res.Funcs["orphan"].Reachable || res.Funcs["loop"].Reachable {
		t.Fatal("unreachable functions marked reachable")
	}
}

func TestCallGraphUnknownCallee(t *testing.T) {
	bm := ir.NewBuilder("target_main", 0)
	z := bm.Const(0)
	r := bm.Call("mystery", z)
	bm.Ret(r)
	m := testModule(t, 1, bm)

	cg := BuildCallGraph(m)
	sites := cg.Unknown["target_main"]
	if len(sites) != 1 || sites[0].Callee != "mystery" {
		t.Fatalf("Unknown sites = %+v", sites)
	}

	res := Analyze(m)
	if !res.WholeSection {
		t.Fatal("call-graph hole did not degrade to whole-section")
	}
	if holes := res.Diags.ByID(analysis.IDCallGraphHole); len(holes) != 1 {
		t.Fatalf("CLX115 count = %d:\n%s", len(holes), res.Diags)
	}
}

func TestAnalyzeNoRootsWholeSection(t *testing.T) {
	// No target_main, main, or closurex_init: there is nothing to scope a
	// restore to, so the analysis must refuse to bound the write set.
	m := testModule(t, 1, retConst("helper", 0))
	res := Analyze(m)
	if !res.WholeSection {
		t.Fatal("rootless module not treated as whole-section")
	}
	if len(res.Roots) != 0 {
		t.Fatalf("Roots = %v, want none", res.Roots)
	}
}

// reportModule is target_main with one bounded global write plus an
// orphan function nothing calls (one CLX118 explanation warning).
func reportModule(t *testing.T) *ir.Module {
	t.Helper()
	b := ir.NewBuilder("target_main", 0)
	gp := b.GlobalAddr(0)
	v := b.Const(3)
	b.Store(gp, v, 0, 4)
	z := b.Const(0)
	b.Ret(z)
	return testModule(t, 2, b, retConst("orphan", 0))
}

func TestReportModuleShape(t *testing.T) {
	rep := ReportModule(reportModule(t))
	if rep.WholeSection {
		t.Fatal("report claims unbounded writes for a bounded module")
	}
	if rep.MayWriteGlobals != 1 || rep.TotalGlobals != 2 {
		t.Fatalf("scope = %d/%d, want 1/2", rep.MayWriteGlobals, rep.TotalGlobals)
	}
	if len(rep.Funcs) != 2 || rep.Funcs[0].Name != "orphan" || rep.Funcs[1].Name != "target_main" {
		t.Fatalf("rows = %+v", rep.Funcs)
	}
	if row := rep.Funcs[1]; !row.Reachable || row.GlobalWrites != 1 || row.MayExit {
		t.Fatalf("target_main row = %+v", row)
	}
	if len(rep.Diags) != 1 || rep.Diags[0].ID != analysis.IDUnreachableFn || rep.Diags[0].Func != "orphan" {
		t.Fatalf("diags = %v, want one CLX118 on orphan", rep.Diags)
	}
	if out := rep.Format(); !strings.Contains(out, "global writes: 1/2 globals may-written") {
		t.Fatalf("rendering lacks the scope line:\n%s", out)
	}
}
