package analysis

import (
	"fmt"
	"sort"

	"closurex/internal/ir"
)

// Verifier diagnostic catalog (structural and dataflow invariants; the
// restore-completeness lints occupy CLX001-CLX099, see lint.go).
const (
	IDEmptyFunc     = "CLX101" // function has no blocks
	IDBadTerminator = "CLX102" // block empty, unterminated, or terminator mid-block
	IDBadTarget     = "CLX103" // branch target out of range
	IDBadRegister   = "CLX104" // register operand out of range
	IDBadCallee     = "CLX105" // callee resolves to neither module function nor builtin
	IDBadArity      = "CLX106" // direct call argument count mismatch
	IDBadGlobal     = "CLX107" // global index out of range
	IDBadSize       = "CLX108" // memory access size not 1/2/4/8
	IDUnassignedUse = "CLX109" // register may be read before assignment
	IDBadSection    = "CLX110" // global carries an unknown/empty section attribute
	IDBadSanCheck   = "CLX111" // malformed sancheck (direction not read/write)
	IDOrphanCheck   = "CLX112" // sancheck not immediately followed by its matching load/store
	IDUncheckedAcc  = "CLX113" // sanitized module has a load/store neither checked nor elision-marked

	// Interprocedural mod/ref explanation warnings (analysis/interproc):
	// why a function's global-write summary could not be bounded. CLX114
	// and CLX117 are retired (they audited the removed restore elision);
	// the numbers are not reused.
	IDCallGraphHole = "CLX115" // call with unknown effects; the caller's mod/ref summary is unbounded
	IDGlobalEscape  = "CLX116" // global write unattributable (unknown pointer or unbounded callee write)
	IDUnreachableFn = "CLX118" // function unreachable from target_main/closurex_init

	// Call pre-resolution audit (vm.ResolveModule stamps CalleeIdx at
	// module-commit time; both execution backends dispatch through it).
	IDStaleCallIdx = "CLX122" // cached callee index disagrees with the callee name
)

const verifierPass = "verifier"

// Verify checks module well-formedness and returns every violation found,
// rather than stopping at the first like the quick ir.Verify gate. Checks:
// every block terminated exactly at its end, branch targets in range,
// register operands in range, registers definitely assigned before use
// (dataflow over the dominator-ordered CFG), callees resolving to module
// functions or known builtins with matching arity, global indices in
// range, and section attributes drawn from the known section set.
func Verify(m *ir.Module, builtins map[string]bool) Diagnostics {
	var ds Diagnostics
	for gi, g := range m.Globals {
		switch g.Section {
		case ir.SectionData, ir.SectionRodata, ir.SectionClosure:
		default:
			ds = append(ds, Diagnostic{
				ID: IDBadSection, Sev: SevError, Pass: verifierPass,
				Block: -1, Instr: -1,
				Msg: fmt.Sprintf("global %d (%s) carries unknown section %q", gi, g.Name, g.Section),
			})
		}
	}
	// The canonical builtin slot order is the name set sorted ascending —
	// the same derivation vm.BuiltinIndex uses — so CLX122 can audit cached
	// negative indices without importing the vm package.
	bslots := make([]string, 0, len(builtins))
	for name := range builtins {
		bslots = append(bslots, name)
	}
	sort.Strings(bslots)
	for _, f := range m.Funcs {
		ds = append(ds, verifyFunc(m, f, builtins, bslots)...)
	}
	ds.Sort()
	return ds
}

func verifyFunc(m *ir.Module, f *ir.Func, builtins map[string]bool, bslots []string) Diagnostics {
	var ds Diagnostics
	emit := func(id string, block, instr int, line int32, format string, args ...interface{}) {
		ds = append(ds, Diagnostic{
			ID: id, Sev: SevError, Pass: verifierPass, Func: f.Name,
			Block: block, Instr: instr, Line: line,
			Msg: fmt.Sprintf(format, args...),
		})
	}
	if len(f.Blocks) == 0 {
		emit(IDEmptyFunc, -1, -1, 0, "function has no blocks")
		return ds
	}
	if f.NumParams > f.NumRegs {
		emit(IDBadRegister, -1, -1, 0, "%d params but only %d registers", f.NumParams, f.NumRegs)
	}
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			emit(IDBadTerminator, bi, -1, 0, "block is empty (no terminator)")
			continue
		}
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			last := ii == len(b.Instrs)-1
			if in.IsTerminator() != last {
				if last {
					emit(IDBadTerminator, bi, ii, in.Pos,
						"block falls through: final instruction %s is not a terminator", in.Op)
				} else {
					emit(IDBadTerminator, bi, ii, in.Pos,
						"terminator %s mid-block (instruction %d of %d)", in.Op, ii, len(b.Instrs))
				}
			}
			verifyOperands(m, f, bi, ii, in, builtins, bslots, emit)
		}
	}
	verifySanitizerShape(m, f, emit)
	if ds.HasErrors() {
		// The structural shape is broken; dataflow over it would chase
		// dangling edges or out-of-range registers.
		return ds
	}
	ds = append(ds, verifyAssigned(f)...)
	return ds
}

// verifyOperands checks one instruction's registers, targets, sizes,
// global indices and callee resolution.
func verifyOperands(m *ir.Module, f *ir.Func, bi, ii int, in *ir.Instr,
	builtins map[string]bool, bslots []string,
	emit func(string, int, int, int32, string, ...interface{})) {

	reg := func(r int, what string) {
		if r < 0 || r >= f.NumRegs {
			emit(IDBadRegister, bi, ii, in.Pos, "%s: %s register %d out of range [0,%d)", in.Op, what, r, f.NumRegs)
		}
	}
	target := func(t int) {
		if t < 0 || t >= len(f.Blocks) {
			emit(IDBadTarget, bi, ii, in.Pos, "%s: branch target %d out of range [0,%d)", in.Op, t, len(f.Blocks))
		}
	}
	size := func() {
		switch in.Size {
		case 1, 2, 4, 8:
		default:
			emit(IDBadSize, bi, ii, in.Pos, "%s: access size %d (want 1, 2, 4 or 8)", in.Op, in.Size)
		}
	}
	switch in.Op {
	case ir.OpConst, ir.OpFrameAddr:
		reg(in.Dst, "dst")
	case ir.OpGlobalAddr:
		if in.Imm < 0 || in.Imm >= int64(len(m.Globals)) {
			emit(IDBadGlobal, bi, ii, in.Pos, "global index %d out of range [0,%d)", in.Imm, len(m.Globals))
		}
		reg(in.Dst, "dst")
	case ir.OpMov, ir.OpUn:
		reg(in.A, "src")
		reg(in.Dst, "dst")
	case ir.OpBin:
		reg(in.A, "lhs")
		reg(in.B, "rhs")
		reg(in.Dst, "dst")
	case ir.OpLoad:
		size()
		reg(in.A, "addr")
		reg(in.Dst, "dst")
	case ir.OpStore:
		size()
		reg(in.A, "addr")
		reg(in.B, "val")
	case ir.OpCall:
		callee := m.Func(in.Callee)
		if callee == nil && !builtins[in.Callee] {
			emit(IDBadCallee, bi, ii, in.Pos, "callee %q resolves to neither a module function nor a builtin", in.Callee)
		}
		if callee != nil && len(in.Args) != callee.NumParams {
			emit(IDBadArity, bi, ii, in.Pos, "call %s: %d args, want %d", in.Callee, len(in.Args), callee.NumParams)
		}
		// A cached callee index (stamped by vm.ResolveModule at commit
		// time) must still name the callee it was resolved against; a
		// mismatch means a pass rewrote call sites without invalidating
		// the cache, and both backends would silently call the wrong
		// function.
		switch {
		case in.CalleeIdx > 0:
			if fi := in.CalleeIdx - 1; fi >= len(m.Funcs) || m.Funcs[fi].Name != in.Callee {
				emit(IDStaleCallIdx, bi, ii, in.Pos,
					"cached callee index %d does not resolve to %q", in.CalleeIdx, in.Callee)
			}
		case in.CalleeIdx < 0:
			if slot := -in.CalleeIdx - 1; slot >= len(bslots) || bslots[slot] != in.Callee {
				emit(IDStaleCallIdx, bi, ii, in.Pos,
					"cached builtin index %d does not resolve to %q", in.CalleeIdx, in.Callee)
			}
		}
		for _, a := range in.Args {
			reg(a, "arg")
		}
		reg(in.Dst, "dst")
	case ir.OpRet:
		if in.A >= 0 {
			reg(in.A, "ret")
		}
	case ir.OpBr:
		target(in.Targets[0])
	case ir.OpCondBr:
		reg(in.A, "cond")
		target(in.Targets[0])
		target(in.Targets[1])
	case ir.OpCov, ir.OpUnreachable:
	case ir.OpSanCheck:
		size()
		reg(in.A, "addr")
		if in.B != 0 && in.B != 1 {
			emit(IDBadSanCheck, bi, ii, in.Pos, "sancheck direction %d (want 0=read or 1=write)", in.B)
		}
	default:
		emit(IDBadTerminator, bi, ii, in.Pos, "unknown opcode %d", uint8(in.Op))
	}
}

// verifySanitizerShape enforces the SanitizerPass contract: every
// OpSanCheck guards exactly the access that follows it (CLX112), and — in
// a module marked Sanitized — every load/store is either guarded or
// carries the SanElide proof mark (CLX113). This is what keeps the pass
// honest under VerifyEach: dropping a check without recording the elision
// is a verifier error, not a silent soundness hole.
func verifySanitizerShape(m *ir.Module, f *ir.Func,
	emit func(string, int, int, int32, string, ...interface{})) {

	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			switch in.Op {
			case ir.OpSanCheck:
				var next *ir.Instr
				if ii+1 < len(b.Instrs) {
					next = &b.Instrs[ii+1]
				}
				ok := next != nil &&
					((in.B == 0 && next.Op == ir.OpLoad) || (in.B == 1 && next.Op == ir.OpStore)) &&
					next.A == in.A && next.Imm == in.Imm && next.Size == in.Size
				if !ok {
					emit(IDOrphanCheck, bi, ii, in.Pos,
						"sancheck is not immediately followed by its matching %s",
						map[int]string{0: "load", 1: "store"}[in.B])
				}
			case ir.OpLoad, ir.OpStore:
				if !m.Sanitized || in.SanElide {
					continue
				}
				guarded := false
				if ii > 0 {
					prev := &b.Instrs[ii-1]
					want := 0
					if in.Op == ir.OpStore {
						want = 1
					}
					guarded = prev.Op == ir.OpSanCheck && prev.B == want &&
						prev.A == in.A && prev.Imm == in.Imm && prev.Size == in.Size
				}
				if !guarded {
					emit(IDUncheckedAcc, bi, ii, in.Pos,
						"%s in sanitized module is neither shadow-checked nor elision-marked", in.Op)
				}
			}
		}
	}
}

// verifyAssigned flags every register read that is not definitely assigned
// on all paths from entry — the dataflow leg of the verifier. Must run on a
// structurally valid function only.
func verifyAssigned(f *ir.Func) Diagnostics {
	cfg := BuildCFG(f)
	assigned := computeAssigned(cfg)
	reach := cfg.Reachable()
	var ds Diagnostics
	var buf []int
	for bi, b := range f.Blocks {
		if !reach[bi] {
			continue // dead joins synthesized by lowering carry no semantics
		}
		cur := assigned.in[bi].Copy()
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			buf = InstrUses(in, buf[:0])
			for _, r := range buf {
				if !cur.Has(r) {
					ds = append(ds, Diagnostic{
						ID: IDUnassignedUse, Sev: SevError, Pass: verifierPass,
						Func: f.Name, Block: bi, Instr: ii, Line: in.Pos,
						Msg: fmt.Sprintf("%s reads register %d, which is not assigned on every path from entry", in.Op, r),
					})
					cur.Set(r) // report each register once per block
				}
			}
			if d := InstrDef(in); d >= 0 {
				cur.Set(d)
			}
		}
	}
	return ds
}
