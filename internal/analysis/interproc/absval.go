package interproc

import (
	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// The per-function abstract domain, a superset of the sanitizer's
// check-elision domain (internal/analysis/sanitize) with one extra region
// kind for parameters, so write effects through pointer parameters can be
// summarized at the callee and re-instantiated at each call site:
//
//	rng        a value interval [lo,hi]
//	frameOff   frame base plus an offset interval
//	globalOff  address of global g plus an offset interval
//	heapOff    an allocator-returned pointer plus an offset interval
//	paramOff   parameter p's incoming value plus an offset interval
//	top        anything else
//
// Soundness of the "cannot write globals" conclusions rests on the VM
// address-space layout (vm/layout.go): the globals segment lies strictly
// below the heap and stack segments, and offsets are clamped to 2^40, far
// from wraparound. A frame- or heap-based address whose offset interval
// is provably non-negative therefore points at or above its segment base
// and can never alias a global byte.

// boundClamp keeps interval arithmetic far from int64 overflow; bounds
// beyond it collapse to top.
const boundClamp = int64(1) << 40

type kind uint8

const (
	top kind = iota
	rng
	frameOff
	globalOff
	heapOff
	paramOff
)

type absVal struct {
	k      kind
	lo, hi int64 // value bounds (rng) or offset bounds (regions)
	g      int   // global index (globalOff)
	p      int   // parameter index (paramOff)
}

var topVal = absVal{k: top}

func rangeVal(lo, hi int64) absVal {
	if lo < -boundClamp || hi > boundClamp || lo > hi {
		return topVal
	}
	return absVal{k: rng, lo: lo, hi: hi}
}

func isRegion(k kind) bool {
	return k == frameOff || k == globalOff || k == heapOff || k == paramOff
}

// funcCtx caches the per-function machinery (CFG, reaching definitions,
// abstract-value memoization) the mod/ref analysis shares across its
// fixpoint rounds. The memoized values depend only on the function body,
// never on callee summaries, so one context is valid for the whole
// analysis.
type funcCtx struct {
	m   *ir.Module
	f   *ir.Func
	cfg *analysis.CFG
	rd  *analysis.ReachingDefs
	idx map[[2]int]int // (block,instr) -> def-site index

	memo   map[int]absVal
	inProg map[int]bool

	// rets resolves callee return-value intervals (shared across the
	// module's contexts); cls caches the lazily-computed region classes.
	rets *retOracle
	cls  []rclass
}

func newFuncCtx(m *ir.Module, f *ir.Func) *funcCtx {
	cfg := analysis.BuildCFG(f)
	rd := analysis.ComputeReachingDefs(cfg)
	idx := make(map[[2]int]int, len(rd.Sites))
	for i, s := range rd.Sites {
		if s.Block >= 0 {
			idx[[2]int{s.Block, s.Instr}] = i
		}
	}
	return &funcCtx{
		m: m, f: f, cfg: cfg, rd: rd, idx: idx,
		memo:   make(map[int]absVal),
		inProg: make(map[int]bool),
	}
}

// value computes the abstract value of register r as read by the
// instruction at (bi, ii): the value of r's unique reaching definition, or
// top when several definitions (loop-carried values, merges) may reach.
func (fc *funcCtx) value(bi, ii, r int) absVal {
	site := fc.useSite(bi, ii, r)
	if site < 0 {
		return topVal
	}
	return fc.evalSite(site)
}

// useSite resolves the unique definition site feeding register r at
// (bi, ii), or -1 when zero or several definitions may reach.
func (fc *funcCtx) useSite(bi, ii, r int) int {
	// A def of r earlier in the same block shadows everything inbound.
	for j := ii - 1; j >= 0; j-- {
		if analysis.InstrDef(&fc.f.Blocks[bi].Instrs[j]) == r {
			return fc.idx[[2]int{bi, j}]
		}
	}
	site := -1
	for i := range fc.rd.Sites {
		if fc.rd.Sites[i].Reg == r && fc.rd.In[bi].Has(i) {
			if site >= 0 {
				return -1
			}
			site = i
		}
	}
	return site
}

// evalSite computes the abstract value produced by one definition site,
// memoized; a cycle (loop-carried dependence) resolves to top.
func (fc *funcCtx) evalSite(site int) absVal {
	if v, ok := fc.memo[site]; ok {
		return v
	}
	if fc.inProg[site] {
		return topVal
	}
	fc.inProg[site] = true
	v := fc.evalSiteUncached(site)
	delete(fc.inProg, site)
	fc.memo[site] = v
	return v
}

func (fc *funcCtx) evalSiteUncached(site int) absVal {
	s := fc.rd.Sites[site]
	if s.Block < 0 {
		return absVal{k: paramOff, p: s.Reg}
	}
	in := &fc.f.Blocks[s.Block].Instrs[s.Instr]
	switch in.Op {
	case ir.OpConst:
		return rangeVal(in.Imm, in.Imm)
	case ir.OpMov:
		return fc.value(s.Block, s.Instr, in.A)
	case ir.OpFrameAddr:
		return absVal{k: frameOff, lo: in.Imm, hi: in.Imm}
	case ir.OpGlobalAddr:
		if in.Imm < 0 || in.Imm >= int64(len(fc.m.Globals)) {
			return topVal
		}
		return absVal{k: globalOff, g: int(in.Imm)}
	case ir.OpLoad:
		// Loads zero-extend (ir.OpLoad contract): a narrow load is bounded
		// by its width no matter what memory holds.
		if in.Size >= 1 && in.Size <= 4 {
			return rangeVal(0, int64(1)<<(8*in.Size)-1)
		}
		return topVal
	case ir.OpBin:
		l := fc.value(s.Block, s.Instr, in.A)
		r := fc.value(s.Block, s.Instr, in.B)
		return evalBin(in.Bin, l, r)
	case ir.OpUn:
		if in.Un == ir.Not {
			return rangeVal(0, 1)
		}
		if in.Un == ir.Neg {
			if v := fc.value(s.Block, s.Instr, in.A); v.k == rng {
				return rangeVal(-v.hi, -v.lo)
			}
		}
		return topVal
	case ir.OpCall:
		switch in.Callee {
		case "malloc", "closurex_malloc", "calloc", "closurex_calloc",
			"realloc", "closurex_realloc":
			// An allocator result points into the heap segment (or is
			// NULL; a store through NULL faults before touching memory).
			return absVal{k: heapOff}
		}
		if fc.rets != nil && fc.m.Func(in.Callee) != nil {
			return fc.rets.retOf(in.Callee)
		}
		return topVal
	}
	return topVal
}

// evalBin implements interval arithmetic with region offsets.
func evalBin(op ir.BinOp, l, r absVal) absVal {
	region := func(base absVal, off absVal, neg bool) absVal {
		if off.k != rng {
			return topVal
		}
		lo, hi := off.lo, off.hi
		if neg {
			lo, hi = -off.hi, -off.lo
		}
		out := base
		out.lo += lo
		out.hi += hi
		if out.lo < -boundClamp || out.hi > boundClamp {
			return topVal
		}
		return out
	}
	switch op {
	case ir.Add:
		switch {
		case l.k == rng && r.k == rng:
			return rangeVal(l.lo+r.lo, l.hi+r.hi)
		case isRegion(l.k) && r.k == rng:
			return region(l, r, false)
		case isRegion(r.k) && l.k == rng:
			return region(r, l, false)
		}
	case ir.Sub:
		switch {
		case l.k == rng && r.k == rng:
			return rangeVal(l.lo-r.hi, l.hi-r.lo)
		case isRegion(l.k) && r.k == rng:
			return region(l, r, true)
		}
	case ir.Mul:
		if l.k == rng && r.k == rng {
			if abs64(l.lo) > boundClamp || abs64(l.hi) > boundClamp ||
				abs64(r.lo) > boundClamp || abs64(r.hi) > boundClamp {
				return topVal
			}
			c := []int64{l.lo * r.lo, l.lo * r.hi, l.hi * r.lo, l.hi * r.hi}
			lo, hi := c[0], c[0]
			for _, v := range c[1:] {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			return rangeVal(lo, hi)
		}
	case ir.Shl:
		if l.k == rng && r.k == rng && r.lo == r.hi && r.lo >= 0 && r.lo < 32 {
			return evalBin(ir.Mul, l, rangeVal(1<<r.lo, 1<<r.lo))
		}
	case ir.And:
		// x & mask with a non-negative constant mask lands in [0, mask].
		if r.k == rng && r.lo == r.hi && r.lo >= 0 {
			return rangeVal(0, r.lo)
		}
		if l.k == rng && l.lo == l.hi && l.lo >= 0 {
			return rangeVal(0, l.lo)
		}
	case ir.Or, ir.Xor:
		// For non-negative a, b: a|b and a^b are both bounded by a+b
		// (bitwise combination never carries) and never negative.
		if l.k == rng && r.k == rng && l.lo >= 0 && r.lo >= 0 {
			return rangeVal(0, l.hi+r.hi)
		}
	case ir.Shr:
		// Arithmetic shift of a non-negative value by a constant amount.
		if l.k == rng && r.k == rng && r.lo == r.hi && r.lo >= 0 && r.lo < 64 && l.lo >= 0 {
			return rangeVal(l.lo>>r.lo, l.hi>>r.lo)
		}
	case ir.Rem:
		if l.k == rng && r.k == rng && r.lo == r.hi && r.lo > 0 && l.lo >= 0 {
			return rangeVal(0, r.lo-1)
		}
	case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.Ult, ir.Ule, ir.Ugt, ir.Uge:
		return rangeVal(0, 1)
	}
	return topVal
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
