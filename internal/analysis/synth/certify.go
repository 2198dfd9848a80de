package synth

// Certification: a synthesized harness earns registration only by
// round-tripping the exact pipeline hand-written harnesses go through —
// minc parse → lower → ClosureX pipeline → coverage → verifier + lint —
// plus two synth-specific obligations: the structural shape (closurex_init
// and target_main present) and an in-bounds proof from the sanitize
// interval domain for every memory access the emitter generated. Any
// failure is CLX130: by construction these are synthesizer bugs, never
// target properties, so the code is an error and trips every gate.
//
// The pipeline below intentionally mirrors core.InstrumentWith's ClosureX
// ordering (state-restoration passes, then coverage last, then callee
// resolution); synth cannot import core without a cycle through targets,
// so a core-side test pins the equivalence.

import (
	"fmt"

	"closurex/internal/analysis"
	"closurex/internal/analysis/harnessaudit"
	"closurex/internal/analysis/sanitize"
	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/passes"
	"closurex/internal/vm"
)

// certify builds and checks a synthesized source. It returns the
// instrumented module on success, and CLX130 diagnostics for every
// certification failure (module nil when the build itself failed).
func certify(target, file, src string) (*ir.Module, analysis.Diagnostics) {
	var ds analysis.Diagnostics
	fail := func(fn, msg string) {
		ds = append(ds, analysis.Diagnostic{
			ID: analysis.IDSynthCertFail, File: file, Sev: analysis.SevError,
			Pass: synthPass, Func: fn, Block: -1, Instr: -1,
			Msg: fmt.Sprintf("synthesized harness for %s failed certification: %s", target, msg),
		})
	}

	pristine, err := lower.Compile(file, src, vm.Builtins())
	if err != nil {
		fail("", fmt.Sprintf("build: %v", err))
		return nil, ds
	}
	vm.ResolveModule(pristine)

	// In-bounds proof on the pristine module: every load/store the
	// emitter generated (main + closurex_init) must be provable by the
	// sanitize interval domain. The original target's own functions are
	// exempt — their accesses are the target's business, guarded at
	// runtime by the sanitizer like any hand-written harness.
	for _, fn := range []string{"main", "closurex_init"} {
		f := pristine.Func(fn)
		if f == nil {
			fail(fn, fmt.Sprintf("emitted program lacks %s", fn))
			continue
		}
		provable := sanitize.Analyze(pristine, f)
		for bi, b := range f.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				if in.Op != ir.OpLoad && in.Op != ir.OpStore {
					continue
				}
				if !provable[sanitize.Access{Block: bi, Instr: ii}] {
					fail(fn, fmt.Sprintf("%s b%d i%d: emitted %v not provably in-bounds by the sanitize interval domain", fn, bi, ii, in.Op))
				}
			}
		}
	}
	if ds.HasErrors() {
		return nil, ds
	}

	mod := pristine.Clone()
	pm := passes.NewManager(vm.Builtins())
	pm.Add(passes.ClosureXPipeline(false)...)
	pm.Add(passes.NewCoveragePass(harnessaudit.DefaultCoverageSeed))
	if err := pm.Run(mod); err != nil {
		fail("", fmt.Sprintf("pipeline: %v", err))
		return nil, ds
	}
	vm.ResolveModule(mod)

	if mod.Func(analysis.TargetMain) == nil {
		fail(analysis.TargetMain, "instrumented module lacks target_main")
	}
	if mod.Func("closurex_init") == nil {
		fail("closurex_init", "instrumented module lacks closurex_init")
	}

	// The same verifier + lint catalog hand-written harnesses pass.
	vds := analysis.Verify(mod, vm.Builtins())
	if !vds.HasErrors() {
		vds = append(vds, analysis.Lint(mod)...)
	}
	for _, d := range vds {
		fail(d.Func, fmt.Sprintf("%s (%s): %s", d.ID, d.Pass, d.Msg))
	}
	if ds.HasErrors() {
		return nil, ds
	}
	return mod, nil
}

// Certify runs the certification gate over an arbitrary harness source and
// returns its diagnostics — the seeded-defect suite drives it with
// hand-corrupted sources to pin the CLX130 tripwire.
func Certify(target, file, src string) analysis.Diagnostics {
	_, ds := certify(target, file, src)
	ds.Sort()
	return ds
}
