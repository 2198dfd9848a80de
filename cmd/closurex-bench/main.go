// Command closurex-bench regenerates the paper's evaluation artifacts at a
// configurable (scaled) budget: Tables 3-7, the execution-mechanism
// spectrum figure, the stale-state pathology demonstration, and the
// restoration ablations; and it runs the table-driven campaign sweeps
// (parallel scaling, compiled tier, sanitizer, auto-dictionary,
// synthesized harnesses, chaos), exiting nonzero after writing the report
// when a sweep's gate fails.
//
// Usage:
//
//	closurex-bench -table 5 -duration 2s -trials 5
//	closurex-bench -table all -targets gpmf-parser,libbpf
//	closurex-bench -figure spectrum
//	closurex-bench -ablation
//	closurex-bench -sweep compile -trials 3 -json BENCH_compile.json
//	closurex-bench -sweep sanitizer -targets sandefect -execs 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"closurex/internal/experiments"
)

func main() {
	var (
		table    = flag.String("table", "", "3 | 4 | 5 | 6 | 7 | all")
		figure   = flag.String("figure", "", "spectrum | stale-state | sections")
		ablation = flag.Bool("ablation", false, "run the restoration ablations")
		duration = flag.Duration("duration", 2*time.Second, "per-trial fuzzing time (paper: 24h)")
		trials   = flag.Int("trials", 5, "trials per configuration (paper: 5)")
		tgts     = flag.String("targets", "", "comma-separated target subset (default: all ten; a sweep: its own set)")
		seed     = flag.Uint64("seed", 0x5eed, "base RNG seed")
		pages    = flag.Int("image-pages", 512, "image size for the spectrum figure")
	)
	var (
		sweep    = flag.String("sweep", "", "run one sweep: "+strings.Join(sweepNames(), " | "))
		execs    = flag.Int64("execs", 0, "timed executions per sweep point (default: the sweep's own)")
		jsonPath = flag.String("json", "", "also write the sweep report to this JSON file (e.g. BENCH_compile.json)")
	)
	flag.Parse()
	if *table == "" && *figure == "" && !*ablation && *sweep == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Config{
		TrialDuration: *duration,
		Trials:        *trials,
		BaseSeed:      *seed,
	}
	if *tgts != "" {
		cfg.Targets = strings.Split(*tgts, ",")
	}

	switch *table {
	case "":
	case "3":
		fmt.Print(experiments.Table3())
	case "4":
		fmt.Print(experiments.Table4())
	case "5", "6", "7", "all":
		if *table == "all" {
			fmt.Print(experiments.Table3())
			fmt.Println()
			fmt.Print(experiments.Table4())
			fmt.Println()
		}
		fmt.Printf("running evaluation: %d trials x %v per cell, 2 mechanisms...\n\n",
			cfg.Trials, cfg.TrialDuration)
		eval, err := experiments.RunEvaluation(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		if *table == "5" || *table == "all" {
			fmt.Print(experiments.FormatTable5(experiments.Table5(eval)))
			fmt.Println()
		}
		if *table == "6" || *table == "all" {
			fmt.Print(experiments.FormatTable6(experiments.Table6(eval)))
			fmt.Println()
		}
		if *table == "7" || *table == "all" {
			fmt.Print(experiments.FormatTable7(experiments.Table7(eval)))
		}
	default:
		fatalf("unknown table %q", *table)
	}

	switch *figure {
	case "":
	case "spectrum":
		rows, err := experiments.RunSpectrum(*pages, 400)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatSpectrum(rows, *pages))
	case "stale-state":
		rep, err := experiments.RunStaleStateDemo()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println("Stale-state pathology demonstration (gpmf-parser):")
		fmt.Println(" ", rep)
		if rep.Correct() {
			fmt.Println("  => naive persistent fuzzing misses real crashes and reports false ones; ClosureX does neither")
		}
	case "reproducibility":
		fmt.Println("Crash reproducibility: campaign crashes replayed in a fresh process")
		for _, tgt := range cfg.Targets {
			rep, err := experiments.RunReproducibility(tgt, *duration, *seed)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Println(" ", rep)
		}
	case "sections":
		for _, tgt := range cfg.Targets {
			out, err := experiments.SectionTransformation(tgt)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Println(out)
		}
	default:
		fatalf("unknown figure %q", *figure)
	}

	if *sweep != "" {
		sw, err := experiments.FindSweep(sweeps, *sweep)
		if err != nil {
			fatalf("%v", err)
		}
		rep, err := experiments.RunSweep(sw, experiments.SweepOptions{
			Targets: cfg.Targets, Execs: *execs, Trials: *trials, Seed: *seed,
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatReport(rep))
		if *jsonPath != "" {
			if err := experiments.WriteJSON(*jsonPath, rep); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("sweep report written to %s\n", *jsonPath)
		}
		// The artifact is written first so a failed gate can be diagnosed.
		if !rep.Pass {
			fatalf("sweep %s: gate failed", sw.Name)
		}
	}

	if *ablation {
		rows, err := experiments.RunAblation(*duration, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(experiments.FormatAblation(rows))
		res, err := experiments.RunDeferInitAblation(500)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\nDeferInitPass extension: %.0f ns/exec -> %.0f ns/exec (%.2fx), results equivalent: %v\n",
			res.NsPerExecBaseline, res.NsPerExecDeferred, res.Speedup, res.ResultsEquivalent)
	}
}

// sweeps is the table -sweep selects from.
var sweeps = experiments.Sweeps()

func sweepNames() []string {
	var names []string
	for _, sw := range sweeps {
		names = append(names, sw.Name)
	}
	return names
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "closurex-bench: "+format+"\n", args...)
	os.Exit(1)
}
