// Package core ties the ClosureX toolchain together: it compiles MinC
// sources, applies the instrumentation pipeline appropriate for each
// execution mechanism, and wires module + mechanism + fuzzer into one
// runnable instance. The public facade (package closurex at the repository
// root) and the experiment drivers are thin layers over this package.
package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"closurex/internal/analysis"
	"closurex/internal/analysis/harnessaudit"
	"closurex/internal/analysis/transval"
	"closurex/internal/execmgr"
	"closurex/internal/faultinject"
	"closurex/internal/fuzz"
	"closurex/internal/harness"
	"closurex/internal/ir"
	"closurex/internal/lower"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// Variant selects an instrumentation pipeline.
type Variant int

// Pipeline variants.
const (
	// Pristine applies no passes: the module as the front end emitted it.
	Pristine Variant = iota
	// Baseline is the AFL++-style build: renamed entry point + coverage,
	// no state-restoration hooks. Used by fresh/forkserver/naive modes.
	Baseline
	// ClosureX is the full Table 3 pipeline + coverage.
	ClosureX
	// ClosureXDeferInit additionally hoists closurex_init (future work).
	ClosureXDeferInit
)

func (v Variant) String() string {
	switch v {
	case Pristine:
		return "pristine"
	case Baseline:
		return "baseline"
	case ClosureX:
		return "closurex"
	case ClosureXDeferInit:
		return "closurex+deferinit"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// VariantFor returns the build variant an execution mechanism needs.
func VariantFor(mechanism string) Variant {
	if strings.HasPrefix(mechanism, "closurex") {
		return ClosureX
	}
	return Baseline
}

// RegisterTarget adds a user-defined benchmark target to the registry,
// surfacing validation failures (nil target, empty or duplicate name) as
// errors — registration input must never panic a library.
func RegisterTarget(t *targets.Target) error { return targets.Register(t) }

// TargetInitErrors reports registration problems from the built-in target
// suite's package initialization (empty for a healthy build).
func TargetInitErrors() []error { return targets.InitErrors() }

// CoverageSeed fixes coverage-probe IDs so both configurations of a trial
// share the same map geometry (the evaluation holds instrumentation
// constant across mechanisms).
const CoverageSeed = 0xC105

// Compile lowers MinC source to a pristine, verified module. The module is
// call-resolved so even pristine executions dispatch through cached callee
// indices.
func Compile(file, src string) (*ir.Module, error) {
	m, err := lower.Compile(file, src, vm.Builtins())
	if err != nil {
		return nil, err
	}
	vm.ResolveModule(m)
	return m, nil
}

// SanitizeMode selects how much sanitizer instrumentation a build carries.
type SanitizeMode int

// Sanitizer build modes. SanitizeNoElide exists for the overhead benchmark:
// it measures what the static check-elision analysis is worth.
const (
	SanitizeOff SanitizeMode = iota
	SanitizeNoElide
	SanitizeElide
)

func (s SanitizeMode) String() string {
	switch s {
	case SanitizeOff:
		return "off"
	case SanitizeNoElide:
		return "on"
	case SanitizeElide:
		return "on+elide"
	}
	return fmt.Sprintf("sanitize(%d)", int(s))
}

// Enabled reports whether the mode arms the shadow plane at all.
func (s SanitizeMode) Enabled() bool { return s != SanitizeOff }

// BuildConfig collects every knob of the instrumentation pipeline.
type BuildConfig struct {
	Variant  Variant
	Sanitize SanitizeMode
}

// Instrument applies the variant's pipeline to a clone of m, leaving m
// untouched, and returns the instrumented module.
func Instrument(m *ir.Module, v Variant) (*ir.Module, error) {
	return InstrumentWith(m, BuildConfig{Variant: v})
}

// InstrumentSanitized is Instrument with sanitizer instrumentation woven
// in (see InstrumentWith for the pass ordering contract).
func InstrumentSanitized(m *ir.Module, v Variant, san SanitizeMode) (*ir.Module, error) {
	return InstrumentWith(m, BuildConfig{Variant: v, Sanitize: san})
}

// InstrumentWith applies the configured pipeline to a clone of m. The
// ordering contract: SanitizerPass runs after the state-restoration
// pipeline (so every access it instruments is final), and CoveragePass
// last — it only prepends probes at block heads, preserving the
// check-immediately-precedes-access adjacency (CLX112/CLX113). Because
// SanitizerPass creates no blocks, coverage probe IDs — and hence bitmap
// geometry — are identical across sanitizer modes.
func InstrumentWith(m *ir.Module, cfg BuildConfig) (*ir.Module, error) {
	out := m.Clone()
	pm := passes.NewManager(vm.Builtins()).VerifyEach(verifyEachDefault)
	addSan := func() {
		if cfg.Sanitize.Enabled() {
			pm.Add(passes.SanitizerPass{Elide: cfg.Sanitize == SanitizeElide})
		}
	}
	switch cfg.Variant {
	case Pristine:
		if !cfg.Sanitize.Enabled() {
			return out, nil
		}
		addSan()
	case Baseline:
		pm.Add(passes.RenameMainPass{})
		addSan()
		pm.Add(passes.NewCoveragePass(CoverageSeed))
	case ClosureX:
		pm.Add(passes.ClosureXPipeline(false)...)
		addSan()
		pm.Add(passes.NewCoveragePass(CoverageSeed))
	case ClosureXDeferInit:
		pm.Add(passes.ClosureXPipeline(true)...)
		addSan()
		pm.Add(passes.NewCoveragePass(CoverageSeed))
	default:
		return nil, fmt.Errorf("core: unknown variant %d", int(cfg.Variant))
	}
	if err := pm.Run(out); err != nil {
		return nil, err
	}
	// Module-commit point: the pipeline is done rewriting call sites, so
	// stamp the callee-index cache both execution backends dispatch
	// through (and CLX122 audits).
	vm.ResolveModule(out)
	return out, nil
}

// Build compiles and instruments in one step.
func Build(file, src string, v Variant) (*ir.Module, error) {
	return BuildWith(file, src, BuildConfig{Variant: v})
}

// BuildSanitized compiles and instruments with the given sanitizer mode.
func BuildSanitized(file, src string, v Variant, san SanitizeMode) (*ir.Module, error) {
	return BuildWith(file, src, BuildConfig{Variant: v, Sanitize: san})
}

// BuildWith compiles and instruments with a full build configuration.
func BuildWith(file, src string, cfg BuildConfig) (*ir.Module, error) {
	m, err := Compile(file, src)
	if err != nil {
		return nil, err
	}
	return InstrumentWith(m, cfg)
}

// VerifyModule runs the deep analysis verifier (structural invariants plus
// definite-assignment dataflow) over m with the VM's builtin set.
func VerifyModule(m *ir.Module) analysis.Diagnostics {
	return analysis.Verify(m, vm.Builtins())
}

// LintModule runs the restore-completeness lints appropriate for a build
// variant: the full catalog for ClosureX builds, whose output must be
// restartable, and the shared subset (entry renaming, coverage sanity) for
// baseline builds, which legitimately keep raw heap/file/exit calls.
func LintModule(m *ir.Module, v Variant) analysis.Diagnostics {
	switch v {
	case ClosureX, ClosureXDeferInit:
		return analysis.Lint(m)
	case Baseline:
		return analysis.LintShared(m)
	default:
		return nil // pristine modules carry no pipeline contract to lint
	}
}

// CheckModule verifies then, on a structurally sound module, lints for the
// given variant — the one-call gate closurex-lint and the -lint campaign
// flag share.
func CheckModule(m *ir.Module, v Variant) analysis.Diagnostics {
	ds := VerifyModule(m)
	if ds.HasErrors() {
		return ds
	}
	return append(ds, LintModule(m, v)...)
}

// Instance is one runnable fuzzing configuration: a target built for a
// mechanism, plus a fuzz.ParallelCampaign over Jobs mechanisms driving it.
// Mech/CovMap alias shard 0's.
type Instance struct {
	Target *targets.Target
	Module *ir.Module
	Mech   execmgr.Mechanism
	CovMap []byte
	// Campaign is shard 0's campaign when Jobs == 1, nil otherwise.
	Campaign *fuzz.Campaign
	// Mechs holds every shard's mechanism.
	Mechs []execmgr.Mechanism
	// Parallel is the fleet when Jobs > 1, nil otherwise; Driver returns
	// the fleet at any Jobs.
	Parallel *fuzz.ParallelCampaign

	fleet *fuzz.ParallelCampaign
	// mechMu guards Mechs against concurrent mutation by shard-supervisor
	// rebuild callbacks.
	mechMu sync.Mutex
}

// Driver returns the campaign fleet.
func (in *Instance) Driver() *fuzz.ParallelCampaign { return in.fleet }

// Jobs returns the number of campaign shards.
func (in *Instance) Jobs() int { return in.fleet.Jobs() }

// InstanceOptions tunes NewInstance.
type InstanceOptions struct {
	// TrialSeed seeds the campaign RNG; each trial uses a distinct seed.
	TrialSeed uint64
	// Budget overrides the per-execution instruction budget.
	Budget int64
	// TraceEdges enables path tracing (correctness study only).
	TraceEdges bool
	// HarnessOpts overrides which state ClosureX restores (ablations).
	HarnessOpts *harness.Options
	// DeferInit switches the ClosureX build to the DeferInit pipeline.
	DeferInit bool
	// Files pre-populates the virtual filesystem (configs etc.).
	Files map[string][]byte
	// ImagePagesOverride overrides the target's Table 4 image size; < 0
	// means "no image" (unit tests), 0 means "use the target's".
	ImagePagesOverride int
	// SentinelEvery arms the divergence sentinel every N campaign
	// executions: replays under a fresh reference image are cross-checked
	// against the campaign mechanism. 0 disables.
	SentinelEvery int64
	// DeterministicRand pins the VM rand()/heap-ASLR seeds to TrialSeed,
	// which the sentinel and checkpoint/resume both want: probe replays
	// and resumed runs then reproduce executions exactly.
	DeterministicRand bool
	// Sanitize arms the ASan-style shadow plane: the build gets
	// SanitizerPass checks (elided where the static analysis proves them
	// unnecessary under SanitizeElide) and every VM — including the
	// sentinel's fresh reference image — attaches shadow memory.
	Sanitize SanitizeMode
	// Injector arms fault injection across the VM and harness.
	Injector *faultinject.Injector
	// Stop propagates a supervisor's shutdown request into the campaign.
	Stop <-chan struct{}
	// ResumeFrom, when non-nil, restores campaign state from a checkpoint
	// (fuzz.ParallelCampaign.Checkpoint) instead of starting fresh. The
	// target, mechanism and TrialSeed must match the checkpointed run. The
	// checkpoint resumes bit-identically under the same Jobs and
	// elastically (corpus re-sharded deterministically, totals preserved)
	// under any other Jobs.
	ResumeFrom []byte
	// Jobs shards the campaign across N parallel workers, each with its
	// own process image and harness, merging coverage into a shared global
	// bitmap. Values below 1 run one shard, which is bit-identical to the
	// sequential fuzz.Campaign.
	Jobs int
	// AutoDict harvests an input-dataflow auto-dictionary from the built
	// module (analysis/harnessaudit: constants the target compares
	// input-derived values against, in both endiannesses, plus rodata
	// strings and call-site constant clusters) and merges it after the
	// target's manual tokens, deduplicated and capped (fuzz.MergeDict).
	// Off, the dictionary path is untouched — campaigns are bit-identical
	// to builds that predate the wiring.
	AutoDict bool
	// MaxShardRestarts is M in the shard recovery ladder: consecutive
	// faults a shard absorbs with restarts or rebuilds before the
	// supervisor escalates to a forced rebuild, the forkserver fallback
	// (closurex shards) and quarantine (0 uses the fuzz.SupervisorConfig
	// default of 3).
	MaxShardRestarts int
	// ShardBackoff is the base cooldown before a shard restart, doubling
	// per consecutive fault (0 uses the default).
	ShardBackoff time.Duration
	// Backend selects the VM execution engine for every mechanism the
	// instance builds: "" or "interp" for the reference interpreter,
	// "compiled" for the closure-chain tier (execmgr imports it).
	Backend string
	// SentinelCrossBackend makes the divergence sentinel's fresh reference
	// image run on the OTHER backend (compiled when the campaign is
	// interpreted and vice versa), turning the replay probe into a two-
	// sided backend differential at campaign runtime. Requires
	// SentinelEvery > 0 to have any effect.
	SentinelCrossBackend bool
	// TransvalOff skips the translation-validation gate that otherwise
	// refuses to start any campaign arming the compiled tier (Backend ==
	// "compiled", or a cross-backend sentinel) on a module whose compiled
	// program does not certify against the IR (analysis/transval). Escape
	// hatch only: an uncertified compiled run can diverge from the
	// interpreter semantics every other result in the repo is stated in.
	TransvalOff bool
}

// transvalCheck runs the translation-validation gate over a built module.
// It is a variable so the refusal path is testable: no registered target
// fails certification (that is what the gate guarantees), so tests inject
// a failing checker instead of manufacturing an uncertifiable build.
var transvalCheck = func(mod *ir.Module) error {
	if ds := transval.Check(mod); len(ds) > 0 {
		return ds.Err()
	}
	return nil
}

// otherBackend maps a backend name to its differential counterpart.
func otherBackend(name string) string {
	if name == "" || name == vm.InterpBackend {
		return CompiledBackend
	}
	return vm.InterpBackend
}

// CompiledBackend names the closure-chain execution tier registered by
// internal/vm/compile (imported via execmgr).
const CompiledBackend = "compiled"

// NewInstance builds target t for the named mechanism and wires a
// campaign seeded with the target's corpus.
func NewInstance(t *targets.Target, mechanism string, opts InstanceOptions) (*Instance, error) {
	if t == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	variant := VariantFor(mechanism)
	if variant == ClosureX && opts.DeferInit {
		variant = ClosureXDeferInit
	}
	mod, err := BuildWith(t.Short+".c", t.Source, BuildConfig{Variant: variant, Sanitize: opts.Sanitize})
	if err != nil {
		return nil, fmt.Errorf("core: build %s: %w", t.Name, err)
	}
	// Translation-validation gate: a campaign that will execute (or
	// cross-check against) the compiled closure-chain tier must not start
	// on a module whose compiled program fails to certify against the IR.
	// The check is static and runs once per instance, before any input
	// executes; -transval=off bypasses it explicitly.
	if !opts.TransvalOff && (opts.Backend == CompiledBackend || opts.SentinelCrossBackend) {
		if terr := transvalCheck(mod); terr != nil {
			return nil, fmt.Errorf("core: %s: compiled tier uncertified (rerun with -transval=off to override): %w",
				t.Name, terr)
		}
	}
	pages := t.ImagePages
	switch {
	case opts.ImagePagesOverride > 0:
		pages = opts.ImagePagesOverride
	case opts.ImagePagesOverride < 0:
		pages = 0
	}
	// newMech builds one execution mechanism over the shared instrumented
	// module. Every shard gets its own: VM memory
	// uses non-atomic copy-on-write bookkeeping, so process images must
	// never be shared across shard goroutines. randSeed varies per shard
	// (ShardSeed) so heap ASLR and target rand() streams are independent.
	newMech := func(name string, cov []byte, randSeed uint64) (execmgr.Mechanism, error) {
		mcfg := execmgr.Config{
			Module:            mod,
			CovMap:            cov,
			Budget:            opts.Budget,
			ImagePages:        pages,
			TraceEdges:        opts.TraceEdges,
			HarnessOpts:       opts.HarnessOpts,
			Files:             opts.Files,
			Injector:          opts.Injector,
			DeterministicRand: opts.DeterministicRand,
			RandSeed:          randSeed,
			Sanitize:          opts.Sanitize.Enabled(),
			Backend:           opts.Backend,
		}
		return execmgr.New(name, mcfg)
	}
	var dict [][]byte
	for _, tok := range t.Dict {
		dict = append(dict, []byte(tok))
	}
	if opts.AutoDict {
		dict = fuzz.MergeDict(append(dict, harnessaudit.Harvest(mod)...), fuzz.DefaultDictCap)
	}
	jobs := max(opts.Jobs, 1)
	in := &Instance{Target: t, Module: mod}
	// Every shard gets its own mechanism and coverage buffer; the
	// divergence sentinel (when armed) rides on shard 0 only so the rest of
	// the fleet fuzzes at full speed.
	var shards []fuzz.ShardConfig
	for j := 0; j < jobs; j++ {
		cov := make([]byte, fuzz.MapSize)
		mech, err := newMech(mechanism, cov, fuzz.ShardSeed(opts.TrialSeed, j))
		if err != nil {
			in.Close()
			return nil, fmt.Errorf("core: shard %d: %w", j, err)
		}
		in.Mechs = append(in.Mechs, mech)
		// replacement builds the supervisor's rebuild (name == mechanism:
		// fresh VM + harness) or fallback mechanism over the same module and
		// swaps it into the instance's mechanism table (and Mech/CovMap for
		// shard 0), so Close releases the replacement, not the corpse, and
		// TryOne runs on a live image. The sentinel probes the shard's
		// current executor, so it follows the swap.
		replacement := func(name string) func() (fuzz.Executor, []byte, error) {
			return func() (fuzz.Executor, []byte, error) {
				ncov := make([]byte, fuzz.MapSize)
				nm, rerr := newMech(name, ncov, fuzz.ShardSeed(opts.TrialSeed, j))
				if rerr != nil {
					return nil, nil, rerr
				}
				in.mechMu.Lock()
				old := in.Mechs[j]
				in.Mechs[j] = nm
				if j == 0 {
					in.Mech, in.CovMap = nm, ncov
				}
				in.mechMu.Unlock()
				old.Close()
				return nm, ncov, nil
			}
		}
		sc := fuzz.ShardConfig{Executor: mech, CovMap: cov, Rebuild: replacement(mechanism)}
		if mechanism == "closurex" {
			sc.Fallback = replacement("forkserver")
		}
		shards = append(shards, sc)
	}
	pcfg := fuzz.ParallelConfig{
		Shards:      shards,
		Seed:        opts.TrialSeed,
		Fingerprint: t.Name + "@" + mechanism,
		Seeds:       t.Seeds(),
		MaxInputLen: t.MaxInputLen,
		Dict:        dict,
		Stop:        opts.Stop,
		Supervisor: fuzz.SupervisorConfig{
			MaxRestarts: opts.MaxShardRestarts,
			Backoff:     opts.ShardBackoff,
			Injector:    opts.Injector,
		},
	}
	if opts.SentinelEvery > 0 {
		// The sentinel's reference replays each probe in a brand-new
		// process image of the SAME instrumented module, so both coverage
		// maps share probe geometry. Image pages are skipped: the reference
		// models fresh semantics, not fresh cost. Its PRNG seed matches
		// shard 0's so rand()/heap-ASLR streams cannot masquerade as
		// divergence (the §6.1.4 nondeterminism masking, done by
		// construction).
		refBackend := opts.Backend
		if opts.SentinelCrossBackend {
			// Two-sided differential: the reference replays every probe on
			// the other execution backend, so any interp/compiled semantic
			// gap surfaces as sentinel divergence during the campaign.
			refBackend = otherBackend(opts.Backend)
		}
		refCov := make([]byte, fuzz.MapSize)
		ref, err := execmgr.NewFresh(execmgr.Config{
			Module:            mod,
			CovMap:            refCov,
			Budget:            opts.Budget,
			Files:             opts.Files,
			DeterministicRand: opts.DeterministicRand,
			RandSeed:          fuzz.ShardSeed(opts.TrialSeed, 0),
			Sanitize:          opts.Sanitize.Enabled(),
			Backend:           refBackend,
		})
		if err != nil {
			in.Close()
			return nil, fmt.Errorf("core: sentinel reference: %w", err)
		}
		pcfg.Sentinel = &fuzz.SentinelConfig{Reference: ref, RefCovMap: refCov, Every: opts.SentinelEvery}
	}
	var fleet *fuzz.ParallelCampaign
	if opts.ResumeFrom != nil {
		fleet, err = fuzz.ResumeParallel(pcfg, opts.ResumeFrom)
	} else {
		fleet, err = fuzz.NewParallelCampaign(pcfg)
	}
	if err != nil {
		in.Close()
		return nil, fmt.Errorf("core: campaign %s: %w", t.Name, err)
	}
	in.Mech, in.CovMap, in.fleet = in.Mechs[0], shards[0].CovMap, fleet
	if jobs == 1 {
		in.Campaign = fleet.Shard(0)
	} else {
		in.Parallel = fleet
	}
	return in, nil
}

// Close releases every shard mechanism's resources.
func (in *Instance) Close() {
	in.mechMu.Lock()
	defer in.mechMu.Unlock()
	for _, m := range in.Mechs {
		m.Close()
	}
}

// TotalProbes returns the number of coverage probes in the instrumented
// module.
func (in *Instance) TotalProbes() int { return passes.CountProbes(in.Module) }

// TotalEdges returns the static edge bound (the denominator of Table 6's
// coverage percentages).
func (in *Instance) TotalEdges() int { return passes.TotalEdges(in.Module) }
