// Command closurex-lint runs the static correctness gate over benchmark
// targets or a user MinC file: the IR verifier (every block terminated,
// branch targets and registers in range, definite assignment before use,
// callees and globals resolvable) followed by the restore-completeness
// lints (CLX001…) that prove the ClosureX pipeline's output is restartable
// — no raw malloc/calloc/realloc/free/fopen/fclose/exit call sites, every
// writable global in closure_global_section, main renamed, collision-free
// coverage probes.
//
// With -sanitize-report the module is built with the sanitizer pass and
// static check-elision analysis armed, and a per-function table of checked
// vs. elided memory accesses is printed after the lint verdict (the
// CLX111-113 sanitizer verifier rules run as part of the gate).
//
// With -interproc-report the interprocedural call-graph and mod/ref
// analysis runs over the built module (no pass is added to the build): its
// explanation warnings (CLX115 call-graph holes, CLX116 unattributable
// global writes, CLX118 unreachable functions) join the module's findings,
// and a per-function table of reachability, transitive global writes and
// may-exit is printed after the lint verdict.
//
// With -harness-report the harness-quality audit runs after the gate:
// static reachability from target_main (CLX119 dead harness surface),
// coverage-geometry analysis of the probe assignment (CLX120 saturation /
// collision displacement), and input-dataflow constant harvesting that
// cross-checks the target's mutation dictionary (CLX121 dead tokens) and
// derives the auto-dictionary. A deterministic per-target score card is
// printed, and -harness-json writes the cards as a byte-stable JSON array.
//
// With -transval the compiled closure-chain tier's translation validation
// runs after the gate: internal/vm/compile is asked for its per-function
// certificates and analysis/transval independently re-derives every claim
// from the IR — branch-target map vs. block concatenation, fusion-pattern
// legality with liveness proofs for elided intermediates, folded-constant
// re-evaluation, callee bindings, and instruction-exact budget-table
// recounts (CLX123-127). -transval-json writes the transval findings as a
// byte-stable JSON array (empty array when everything certifies).
//
// With -synth the static harness synthesizer runs after the gate: exported
// non-entry functions are ranked by the audit's reachability/taint facts,
// a type- and fact-driven argument plan is derived per signature, and a
// dispatching MinC harness is emitted and certified through the same
// verifier+lint path (CLX128 unsynthesizable signature, CLX129 uncovered
// surface, CLX130 certification failure, CLX131 plan shadowed by the
// manual harness). -synth-json writes the per-target synthesis reports as
// a byte-stable JSON array. When -harness-report is also active, certified
// synthesized harnesses are scored alongside the manual ones (as
// "<target>+synth" cards, same surface/geometry/dictionary weights).
//
// With -format json, findings are emitted as one machine-readable JSON
// array over all checked modules — schema analysis.JSONDiagnostic (file,
// function, code, severity, pass, block, instr, line, message), sorted by
// (file, function, code, position) so the bytes are stable across runs.
//
// Usage:
//
//	closurex-lint -target all
//	closurex-lint -file prog.c
//	closurex-lint -target gpmf-parser -variant baseline
//	closurex-lint -target all -sanitize-report
//	closurex-lint -target all -interproc-report
//	closurex-lint -target all -harness-report
//	closurex-lint -target all -harness-json cards.json
//	closurex-lint -target all -transval
//	closurex-lint -target all -transval-json transval.json
//	closurex-lint -target all -synth
//	closurex-lint -target all -synth-json synth.json
//	closurex-lint -target all -format json
//	closurex-lint -target all -strict
//	closurex-lint -catalog
//
// Exit status:
//
//	0  every checked module is clean (warnings tolerated unless -strict)
//	1  a module failed to build, fired an error-severity diagnostic, or —
//	   under -strict — fired any warning-severity diagnostic
//	2  usage errors (unknown target, unreadable file, bad variant)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"closurex/internal/analysis"
	"closurex/internal/analysis/harnessaudit"
	"closurex/internal/analysis/interproc"
	"closurex/internal/analysis/sanitize"
	"closurex/internal/analysis/synth"
	"closurex/internal/analysis/transval"
	"closurex/internal/core"
	"closurex/internal/targets"
	"closurex/internal/vm/compile"
)

func main() {
	var (
		targetName = flag.String("target", "", "benchmark name or 'all'")
		file       = flag.String("file", "", "MinC source file to lint")
		variant    = flag.String("variant", "closurex", "pipeline to lint: pristine | baseline | closurex | closurex+deferinit")
		catalog    = flag.Bool("catalog", false, "print the lint catalog and exit")
		quiet      = flag.Bool("q", false, "suppress per-module OK lines")
		strict     = flag.Bool("strict", false, "exit non-zero on warning-severity diagnostics too")
		sanReport  = flag.Bool("sanitize-report", false, "instrument with the sanitizer and print per-function check/elision counts")
		ipReport   = flag.Bool("interproc-report", false, "run the interprocedural mod/ref analysis (CLX115/116/118) and print the per-function table")
		haReport   = flag.Bool("harness-report", false, "run the harness-quality audit (CLX119-121) and print per-target score cards")
		haJSON     = flag.String("harness-json", "", "write the harness score cards as a JSON array to this path (implies -harness-report)")
		tvReport   = flag.Bool("transval", false, "run translation validation of the compiled tier (CLX123-127) as part of the gate")
		tvJSON     = flag.String("transval-json", "", "write the transval findings as a byte-stable JSON array to this path (implies -transval)")
		syReport   = flag.Bool("synth", false, "run the static harness synthesizer (CLX128-131) and print per-target synthesis summaries")
		syJSON     = flag.String("synth-json", "", "write the synthesis reports as a byte-stable JSON array to this path (implies -synth)")
		format     = flag.String("format", "text", "output format: text | json")
	)
	flag.Parse()
	if *format != "text" && *format != "json" {
		fatalf(2, "unknown -format %q (want text or json)", *format)
	}
	jsonOut := *format == "json"

	if *catalog {
		printCatalog()
		return
	}

	v, err := parseVariant(*variant)
	if err != nil {
		fatalf(2, "%v", err)
	}

	audit := *haReport || *haJSON != ""
	tv := *tvReport || *tvJSON != ""
	doSynth := *syReport || *syJSON != ""

	type job struct {
		name, file, src string
		dict            [][]byte
	}
	var jobs []job
	switch {
	case *targetName == "all":
		for _, t := range targets.All() {
			jobs = append(jobs, job{t.Name, t.Short + ".c", t.Source, dictBytes(t.Dict)})
		}
	case *targetName != "":
		t := targets.Get(*targetName)
		if t == nil {
			fatalf(2, "unknown target %q (have %v)", *targetName, targets.Names())
		}
		jobs = append(jobs, job{t.Name, t.Short + ".c", t.Source, dictBytes(t.Dict)})
	case *file != "":
		data, rerr := os.ReadFile(*file)
		if rerr != nil {
			fatalf(2, "%v", rerr)
		}
		jobs = append(jobs, job{*file, *file, string(data), nil})
	default:
		flag.Usage()
		os.Exit(2)
	}

	cfg := core.BuildConfig{Variant: v}
	if *sanReport {
		cfg.Sanitize = core.SanitizeElide
	}

	failures, warnings := 0, 0
	all := analysis.Diags{}
	tvAll := analysis.Diags{}
	var cards []*harnessaudit.Card
	var reports []*synth.Report
	for _, j := range jobs {
		mod, berr := core.BuildWith(j.file, j.src, cfg)
		if berr != nil {
			fmt.Fprintf(os.Stderr, "closurex-lint: %s: build: %v\n", j.name, berr)
			failures++
			continue
		}
		ds := core.CheckModule(mod, v)
		var ipRep *interproc.Report
		if *ipReport {
			ipRep = interproc.ReportModule(mod)
			ds = append(ds, ipRep.Diags...)
			ds.Sort()
		}
		var card *harnessaudit.Card
		if audit {
			c, ads := harnessaudit.Audit(j.name, mod, harnessaudit.Options{Dict: j.dict})
			card, cards = c, append(cards, c)
			ds = append(ds, ads...)
			ds.Sort()
		}
		var tvStats transval.Stats
		if tv {
			tds := transval.Check(mod)
			tvAll.Add(j.name, tds)
			ds = append(ds, tds...)
			ds.Sort()
			if len(tds) == 0 {
				if cert, cerr := compile.CertFor(mod); cerr == nil {
					tvStats = transval.Summarize(cert)
				}
			}
		}
		var sh *synth.Harness
		var synthCard *harnessaudit.Card
		if doSynth {
			h, serr := synth.Synthesize(j.name, j.file, j.src, synth.Options{})
			if serr != nil {
				fmt.Fprintf(os.Stderr, "closurex-lint: %s: synth: %v\n", j.name, serr)
				failures++
			} else {
				sh = h
				reports = append(reports, h.Report)
				ds = append(ds, h.Diags...)
				ds.Sort()
				// Certified synthesized harnesses are scored alongside the
				// manual ones (same surface/geometry/dictionary weights).
				if audit && h.Module != nil {
					c, _ := harnessaudit.Audit(j.name+"+synth", h.Module, harnessaudit.Options{Dict: j.dict})
					synthCard, cards = c, append(cards, c)
				}
			}
		}
		warnings += countWarnings(ds)
		all.Add(j.name, ds)
		if ds.HasErrors() {
			failures++
		}
		if jsonOut {
			continue // findings print once, flattened, after the loop
		}
		if ds.HasErrors() {
			fmt.Printf("FAIL  %s (%d error(s))\n", j.name, ds.Errors())
			for _, d := range ds {
				fmt.Printf("      %s\n", d)
			}
			continue
		}
		for _, d := range ds {
			fmt.Printf("      %s\n", d) // non-error findings, if any
		}
		if !*quiet {
			fmt.Printf("OK    %s (verifier + %d lints clean)\n", j.name, len(analysis.LintCatalog()))
		}
		if tv && !*quiet {
			fmt.Printf("      transval: certified %d function(s), %d closures, %d fused, %d elided, %d runs\n",
				tvStats.Funcs, tvStats.PCs, tvStats.Fused, tvStats.Elided, tvStats.Runs)
		}
		if card != nil {
			fmt.Print(card.Format())
		}
		if sh != nil && !*quiet {
			fmt.Printf("      synth: %d arm(s), hdr %dB, certified=%v (%d unsynthesizable, %d uncovered, %d shadowed)\n",
				len(sh.Report.Arms), sh.Report.HdrBytes, sh.Report.Certified,
				len(sh.Report.Unsynthesizable), len(sh.Report.Uncovered), len(sh.Report.Shadowed))
		}
		if synthCard != nil {
			fmt.Print(synthCard.Format())
		}
		if *sanReport {
			rep := sanitize.ReportModule(mod)
			fmt.Printf("sanitizer check elision for %s:\n%s", j.name, rep.Format())
		}
		if ipRep != nil {
			fmt.Printf("interprocedural mod/ref for %s:\n%s", j.name, ipRep.Format())
		}
	}
	if jsonOut {
		b, jerr := all.Flatten().JSON()
		if jerr != nil {
			fatalf(2, "encode: %v", jerr)
		}
		os.Stdout.Write(b)
	}
	if *tvJSON != "" {
		b, jerr := tvAll.Flatten().JSON()
		if jerr != nil {
			fatalf(2, "encode transval findings: %v", jerr)
		}
		if werr := os.WriteFile(*tvJSON, b, 0o644); werr != nil {
			fatalf(2, "%v", werr)
		}
	}
	if *syJSON != "" {
		b, jerr := synth.ReportsJSON(reports)
		if jerr != nil {
			fatalf(2, "encode synthesis reports: %v", jerr)
		}
		if werr := os.WriteFile(*syJSON, b, 0o644); werr != nil {
			fatalf(2, "%v", werr)
		}
	}
	if *haJSON != "" {
		b, jerr := harnessaudit.CardsJSON(cards)
		if jerr != nil {
			fatalf(2, "encode score cards: %v", jerr)
		}
		if werr := os.WriteFile(*haJSON, b, 0o644); werr != nil {
			fatalf(2, "%v", werr)
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
	if *strict && warnings > 0 {
		fmt.Fprintf(os.Stderr, "closurex-lint: -strict: %d warning(s)\n", warnings)
		os.Exit(1)
	}
	if !*quiet && !jsonOut {
		fmt.Printf("\n%d module(s) statically restartable: every restore-completeness invariant holds\n", len(jobs))
	}
}

func countWarnings(ds analysis.Diagnostics) int {
	n := 0
	for i := range ds {
		if ds[i].Sev == analysis.SevWarn {
			n++
		}
	}
	return n
}

func parseVariant(s string) (core.Variant, error) {
	for _, v := range []core.Variant{core.Pristine, core.Baseline, core.ClosureX, core.ClosureXDeferInit} {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", s)
}

func printCatalog() {
	cat := analysis.Catalog()
	ids := make([]string, 0, len(cat))
	for id := range cat {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Println("ClosureX diagnostic catalog (lints CLX001+, verifier CLX101+, audits CLX115+):")
	for _, id := range ids {
		fmt.Printf("  %s  %s\n", id, cat[id])
	}
}

func dictBytes(dict []string) [][]byte {
	out := make([][]byte, 0, len(dict))
	for _, s := range dict {
		out = append(out, []byte(s))
	}
	return out
}

func fatalf(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "closurex-lint: "+format+"\n", args...)
	os.Exit(code)
}
