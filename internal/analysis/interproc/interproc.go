// Package interproc implements the interprocedural analyses over lowered
// modules: a call-graph construction and per-function transitive mod/ref
// summaries of writes to closure_global_section (plus may-exit). The
// harness-quality audit reads the call graph for its reachability facts
// (CLX119), the harness synthesizer reads the summaries to pick arm
// closures and init preconditions, and closurex-lint -interproc-report
// prints the per-function table together with the explanation warnings
// (CLX115/116/118) for every summary the analysis could not bound.
package interproc

import (
	"fmt"
	"sort"
	"strings"

	"closurex/internal/analysis"
	"closurex/internal/ir"
)

// interprocPass is the Pass attribution carried by this package's
// diagnostics.
const interprocPass = "interproc"

// initFunc mirrors passes.InitFunc — the deferred-initialization routine
// the harness invokes directly, hence an analysis root. Declared here
// because analysis sits below passes in the import graph.
const initFunc = "closurex_init"

// FuncResult carries one function's per-function analysis outcome.
type FuncResult struct {
	Summary   *Summary
	Reachable bool
}

// Result is the whole-module analysis outcome.
type Result struct {
	Graph *CallGraph
	// Roots are the entry points reachability was computed from.
	Roots []string
	Funcs map[string]*FuncResult
	// MayWriteGlobals is the sorted union of global indices any reachable
	// function may write. Meaningless when WholeSection is set.
	MayWriteGlobals []int
	// WholeSection is set when some reachable function's global writes
	// could not be bounded, or when no root was found: every global in the
	// section must then be treated as may-written.
	WholeSection bool
	// Diags carries the explanation warnings: CLX115 call-graph holes,
	// CLX116 unattributable global writes, CLX118 unreachable functions.
	Diags analysis.Diagnostics
}

// Analyze runs the call graph and mod/ref fixpoint analyses over m. The
// module is not modified.
func Analyze(m *ir.Module) *Result {
	res := &Result{
		Graph: BuildCallGraph(m),
		Funcs: make(map[string]*FuncResult, len(m.Funcs)),
	}
	for _, root := range []string{analysis.TargetMain, "main", initFunc} {
		if m.Func(root) != nil {
			if root == "main" && len(res.Roots) > 0 {
				continue // target_main present: stale main is the linter's problem
			}
			res.Roots = append(res.Roots, root)
		}
	}
	reach := res.Graph.Reachable(res.Roots...)

	ctxs := make(map[string]*funcCtx, len(m.Funcs))
	var all, reachable []string
	for _, f := range m.Funcs {
		ctxs[f.Name] = newFuncCtx(m, f)
		all = append(all, f.Name)
		if reach[f.Name] {
			reachable = append(reachable, f.Name)
		}
	}
	sort.Strings(all)
	sort.Strings(reachable)
	// Resolve return-value intervals bottom-up before anything consults
	// them; forcing in sorted order keeps the memo state — and with it
	// every downstream conclusion — deterministic across runs.
	rets := newRetOracle(ctxs)
	for _, fn := range all {
		ctxs[fn].rets = rets
	}
	for _, fn := range all {
		rets.retOf(fn)
	}
	sums := computeModRef(m, ctxs, reachable)

	// Reporting pass: re-derive each reachable function's effects against
	// the stable summaries, collecting the CLX115/CLX116 explanations.
	st := &modRefState{m: m, ctxs: ctxs, sums: sums, grow: map[string]int{}}
	for _, fn := range reachable {
		st.effects(ctxs[fn], &res.Diags)
	}

	writes := map[int]bool{}
	if len(res.Roots) == 0 {
		res.WholeSection = true
	}
	for _, f := range m.Funcs {
		fr := &FuncResult{Reachable: reach[f.Name], Summary: sums[f.Name]}
		if fr.Summary == nil {
			fr.Summary = newSummary()
		}
		res.Funcs[f.Name] = fr
		if fr.Reachable {
			if fr.Summary.Unknown {
				res.WholeSection = true
			}
			for g := range fr.Summary.WritesGlobals {
				writes[g] = true
			}
			// A root whose own parameters are written is a contract the
			// harness cannot check; treat as unbounded.
			if len(fr.Summary.ParamWrites) > 0 && isRoot(res.Roots, f.Name) {
				res.WholeSection = true
			}
		} else {
			res.Diags = append(res.Diags, analysis.Diagnostic{
				ID: analysis.IDUnreachableFn, Sev: analysis.SevWarn, Pass: interprocPass,
				Func: f.Name, Block: -1, Instr: -1,
				Msg: fmt.Sprintf("function unreachable from %s; excluded from the mod/ref summaries", strings.Join(res.Roots, "/")),
			})
		}
	}
	for g := range writes {
		res.MayWriteGlobals = append(res.MayWriteGlobals, g)
	}
	sort.Ints(res.MayWriteGlobals)
	res.Diags.Sort()
	return res
}

func isRoot(roots []string, fn string) bool {
	for _, r := range roots {
		if r == fn {
			return true
		}
	}
	return false
}

func sortedFuncNames(m map[string]*FuncResult) []string {
	out := make([]string, 0, len(m))
	for fn := range m {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// --- reporting (closurex-lint -interproc-report) ---

// FuncReport is one row of the per-function report table.
type FuncReport struct {
	Name      string
	Reachable bool
	// GlobalWrites counts globals the function's transitive summary may
	// write; -1 renders as "unbounded".
	GlobalWrites int
	MayExit      bool
}

// Report aggregates the per-function mod/ref table, the module-level
// write scope and the explanation warnings (CLX115/116/118).
type Report struct {
	Funcs           []FuncReport
	MayWriteGlobals int
	TotalGlobals    int
	WholeSection    bool
	Diags           analysis.Diagnostics
}

// ReportModule analyzes m from scratch and builds the per-function table
// — the closurex-lint -interproc-report entry point.
func ReportModule(m *ir.Module) *Report {
	res := Analyze(m)
	rep := &Report{
		MayWriteGlobals: len(res.MayWriteGlobals),
		TotalGlobals:    len(m.Globals),
		WholeSection:    res.WholeSection,
		Diags:           res.Diags,
	}
	for _, fn := range sortedFuncNames(res.Funcs) {
		fr := res.Funcs[fn]
		row := FuncReport{Name: fn, Reachable: fr.Reachable, MayExit: fr.Summary.MayExit}
		if fr.Summary.Unknown {
			row.GlobalWrites = -1
		} else {
			row.GlobalWrites = len(fr.Summary.WritesGlobals)
		}
		rep.Funcs = append(rep.Funcs, row)
	}
	return rep
}

// Format renders the report as the table closurex-lint prints.
func (r *Report) Format() string {
	var sb strings.Builder
	scope := fmt.Sprintf("%d/%d globals may-written", r.MayWriteGlobals, r.TotalGlobals)
	if r.WholeSection {
		scope = "unbounded (every global may be written)"
	}
	fmt.Fprintf(&sb, "global writes: %s\n", scope)
	fmt.Fprintf(&sb, "%-24s %5s %9s %7s\n", "function", "reach", "gwrites", "mayexit")
	for _, fr := range r.Funcs {
		reach, exits := "yes", "no"
		if !fr.Reachable {
			reach = "no"
		}
		if fr.MayExit {
			exits = "yes"
		}
		gw := fmt.Sprintf("%d", fr.GlobalWrites)
		if fr.GlobalWrites < 0 {
			gw = "unbounded"
		}
		fmt.Fprintf(&sb, "%-24s %5s %9s %7s\n", fr.Name, reach, gw, exits)
	}
	return sb.String()
}
