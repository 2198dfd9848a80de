package interproc

import (
	"reflect"
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/ir"
	"closurex/internal/vm"
)

// The region-class proofs hold only for executions of at most BudgetCap
// instructions; the VM's default budget must stay inside that bound.
func TestDefaultBudgetWithinCap(t *testing.T) {
	if vm.DefaultBudget > BudgetCap {
		t.Fatalf("vm.DefaultBudget = %d exceeds BudgetCap = %d", vm.DefaultBudget, BudgetCap)
	}
}

func TestModRefBoundedGlobalWrite(t *testing.T) {
	// target_main writes global 0 in bounds and never touches global 1:
	// the restore scope is exactly [g0].
	b := ir.NewBuilder("target_main", 0)
	gp := b.GlobalAddr(0)
	v := b.Const(7)
	b.Store(gp, v, 8, 4) // g0[8..12): in bounds of 64
	b.Ret(v)
	m := testModule(t, 2, b)

	res := Analyze(m)
	if res.WholeSection {
		t.Fatalf("bounded store degraded to whole-section:\n%s", res.Diags)
	}
	if !reflect.DeepEqual(res.MayWriteGlobals, []int{0}) {
		t.Fatalf("MayWriteGlobals = %v, want [0]", res.MayWriteGlobals)
	}
	s := res.Funcs["target_main"].Summary
	if s.Unknown || !s.WritesGlobals[0] || s.WritesGlobals[1] {
		t.Fatalf("summary = %+v", s)
	}
}

func TestModRefOutOfBoundsGlobalWriteDegrades(t *testing.T) {
	// A store that can cross the global's end cannot be attributed to it:
	// whole-section, with a CLX116 explanation.
	b := ir.NewBuilder("target_main", 0)
	gp := b.GlobalAddr(0)
	v := b.Const(1)
	b.Store(gp, v, 60, 8) // [60,68) overruns the 64-byte global
	b.Ret(v)
	m := testModule(t, 1, b)

	res := Analyze(m)
	if !res.WholeSection {
		t.Fatal("overrunning global store not degraded to whole-section")
	}
	if esc := res.Diags.ByID(analysis.IDGlobalEscape); len(esc) != 1 {
		t.Fatalf("CLX116 count = %d:\n%s", len(esc), res.Diags)
	}
}

func TestModRefCalleeParamWriteInstantiated(t *testing.T) {
	// helper writes 4 bytes through its pointer parameter; the caller
	// passes &g0, so the write lands in global 0 at the call site.
	bh := ir.NewBuilder("helper", 1)
	v := bh.Const(9)
	bh.Store(0, v, 0, 4)
	bh.Ret(v)

	bm := ir.NewBuilder("target_main", 0)
	gp := bm.GlobalAddr(0)
	r := bm.Call("helper", gp)
	bm.Ret(r)
	m := testModule(t, 2, bm, bh)

	res := Analyze(m)
	if res.WholeSection {
		t.Fatalf("instantiated param write degraded to whole-section:\n%s", res.Diags)
	}
	if !reflect.DeepEqual(res.MayWriteGlobals, []int{0}) {
		t.Fatalf("MayWriteGlobals = %v, want [0]", res.MayWriteGlobals)
	}
	hs := res.Funcs["helper"].Summary
	if iv, ok := hs.ParamWrites[0]; !ok || iv.Lo != 0 || iv.Hi != 3 || iv.Unbounded {
		t.Fatalf("helper ParamWrites = %+v", hs.ParamWrites)
	}
}

func TestModRefCalleeParamWriteCrossingGlobalEnd(t *testing.T) {
	// Same helper, but the caller hands it a pointer 62 bytes into the
	// 64-byte global: the instantiated write [62,66) crosses the end and
	// the caller degrades to whole-section.
	bh := ir.NewBuilder("helper", 1)
	v := bh.Const(9)
	bh.Store(0, v, 0, 4)
	bh.Ret(v)

	bm := ir.NewBuilder("target_main", 0)
	gp := bm.GlobalAddr(0)
	off := bm.Const(62)
	p := bm.Bin(ir.Add, gp, off)
	r := bm.Call("helper", p)
	bm.Ret(r)
	m := testModule(t, 1, bm, bh)

	res := Analyze(m)
	if !res.WholeSection {
		t.Fatal("write crossing the global's end not degraded to whole-section")
	}
}

func TestModRefHeapLoopFallback(t *testing.T) {
	// A loop-carried heap store: the interval analysis loses the index at
	// the merge (two reaching defs -> top), and the region classifier must
	// recover "heap base + non-negative offset" so the store is proven
	// clean of globals.
	b := ir.NewBuilder("target_main", 0)
	sz := b.Const(8)
	p := b.Call("malloc", sz)
	i := b.NewReg()
	z := b.Const(0)
	b.Mov(i, z)
	head := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()
	b.Br(head)
	b.SetBlock(head)
	lim := b.Const(8)
	c := b.Bin(ir.Lt, i, lim)
	b.CondBr(c, body, exit)
	b.SetBlock(body)
	addr := b.Bin(ir.Add, p, i)
	v := b.Const(1)
	b.Store(addr, v, 0, 1)
	one := b.Const(1)
	ni := b.Bin(ir.Add, i, one)
	b.Mov(i, ni)
	b.Br(head)
	b.SetBlock(exit)
	b.Call("free", p)
	zr := b.Const(0)
	b.Ret(zr)
	m := testModule(t, 1, b)

	res := Analyze(m)
	if res.WholeSection {
		t.Fatalf("loop-carried heap store degraded to whole-section:\n%s", res.Diags)
	}
	if len(res.MayWriteGlobals) != 0 {
		t.Fatalf("MayWriteGlobals = %v, want empty", res.MayWriteGlobals)
	}
}

func TestModRefLoadBoundAndMask(t *testing.T) {
	// A 1-byte load zero-extends to [0,255]; masked with 63 it indexes
	// global 0 in bounds — the OpLoad width bound plus the And rule keep
	// the write attributable.
	b := ir.NewBuilder("target_main", 0)
	sz := b.Const(4)
	p := b.Call("malloc", sz)
	x := b.Load(p, 0, 1)
	mask := b.Const(63)
	idx := b.Bin(ir.And, x, mask)
	gp := b.GlobalAddr(0)
	addr := b.Bin(ir.Add, gp, idx)
	v := b.Const(1)
	b.Store(addr, v, 0, 1) // g0[idx], idx in [0,63]: in bounds
	b.Call("free", p)
	b.Ret(v)
	m := testModule(t, 1, b)

	res := Analyze(m)
	if res.WholeSection {
		t.Fatalf("masked-load-indexed store degraded to whole-section:\n%s", res.Diags)
	}
	if !reflect.DeepEqual(res.MayWriteGlobals, []int{0}) {
		t.Fatalf("MayWriteGlobals = %v, want [0]", res.MayWriteGlobals)
	}
}

func TestRetOracleBoundsCalleeReturn(t *testing.T) {
	// helper returns 5 or 60; the caller uses the result as a global
	// offset for a 4-byte store — [5,63] stays inside the 64-byte global
	// only because the oracle joins both return intervals.
	bh := ir.NewBuilder("helper", 1)
	z := bh.Const(0)
	c := bh.Bin(ir.Eq, 0, z)
	then := bh.NewBlock()
	els := bh.NewBlock()
	bh.CondBr(c, then, els)
	bh.SetBlock(then)
	lo := bh.Const(5)
	bh.Ret(lo)
	bh.SetBlock(els)
	hi := bh.Const(60)
	bh.Ret(hi)

	bm := ir.NewBuilder("target_main", 0)
	arg := bm.Const(1)
	off := bm.Call("helper", arg)
	gp := bm.GlobalAddr(0)
	addr := bm.Bin(ir.Add, gp, off)
	v := bm.Const(2)
	bm.Store(addr, v, 0, 4) // g0[off..off+4), off in [5,60]: ends at 63
	bm.Ret(v)
	m := testModule(t, 1, bm, bh)

	res := Analyze(m)
	if res.WholeSection {
		t.Fatalf("oracle-bounded offset degraded to whole-section:\n%s", res.Diags)
	}
	if !reflect.DeepEqual(res.MayWriteGlobals, []int{0}) {
		t.Fatalf("MayWriteGlobals = %v, want [0]", res.MayWriteGlobals)
	}
}

func TestModRefMayExitPropagates(t *testing.T) {
	bh := ir.NewBuilder("helper", 0)
	one := bh.Const(1)
	bh.Call("exit", one)
	bh.Ret(one)

	bm := ir.NewBuilder("target_main", 0)
	r := bm.Call("helper")
	bm.Ret(r)
	m := testModule(t, 0, bm, bh)

	res := Analyze(m)
	for _, fn := range []string{"helper", "target_main"} {
		if !res.Funcs[fn].Summary.MayExit {
			t.Errorf("%s: MayExit not set", fn)
		}
	}
}

func TestModRefMemsetBoundedDestination(t *testing.T) {
	// memset(&g0, 0, 64) writes exactly the global; memset(&g0, 0, 65)
	// crosses its end and must degrade.
	build := func(n int64) *ir.Module {
		b := ir.NewBuilder("target_main", 0)
		gp := b.GlobalAddr(0)
		z := b.Const(0)
		ln := b.Const(n)
		b.Call("memset", gp, z, ln)
		b.Ret(z)
		return testModule(t, 1, b)
	}
	if res := Analyze(build(64)); res.WholeSection || !reflect.DeepEqual(res.MayWriteGlobals, []int{0}) {
		t.Fatalf("in-bounds memset: whole=%v writes=%v", res.WholeSection, res.MayWriteGlobals)
	}
	if res := Analyze(build(65)); !res.WholeSection {
		t.Fatal("overrunning memset not degraded to whole-section")
	}
}
