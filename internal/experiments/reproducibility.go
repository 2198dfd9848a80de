package experiments

import (
	"fmt"
	"time"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// ReproducibilityReport quantifies the paper's third pathology of naive
// persistent fuzzing: crashes that depend on stale state from earlier test
// cases do not reproduce when the reported input is replayed in a fresh
// process — wasting triage effort. Crashes found under ClosureX must
// reproduce by construction.
type ReproducibilityReport struct {
	Target string
	// Found is the number of unique crash buckets each mechanism reported.
	NaiveFound    int
	ClosureXFound int
	// Reproducible is how many of those buckets' saved inputs crash (with
	// the same triage key) in a fresh process.
	NaiveReproducible    int
	ClosureXReproducible int
}

// NaiveRate returns the fraction of naive-persistent crashes that
// reproduce.
func (r ReproducibilityReport) NaiveRate() float64 {
	if r.NaiveFound == 0 {
		return 1
	}
	return float64(r.NaiveReproducible) / float64(r.NaiveFound)
}

// ClosureXRate returns the fraction of ClosureX crashes that reproduce.
func (r ReproducibilityReport) ClosureXRate() float64 {
	if r.ClosureXFound == 0 {
		return 1
	}
	return float64(r.ClosureXReproducible) / float64(r.ClosureXFound)
}

func (r ReproducibilityReport) String() string {
	return fmt.Sprintf("%s: naive persistent %d/%d crashes reproduce (%.0f%%); closurex %d/%d (%.0f%%)",
		r.Target, r.NaiveReproducible, r.NaiveFound, 100*r.NaiveRate(),
		r.ClosureXReproducible, r.ClosureXFound, 100*r.ClosureXRate())
}

// RunReproducibility fuzzes target under naive persistence and under
// ClosureX for d each, then replays every reported crash input in a fresh
// process and checks that the same triage bucket fires.
func RunReproducibility(targetName string, d time.Duration, seed uint64) (ReproducibilityReport, error) {
	t := targets.Get(targetName)
	if t == nil {
		return ReproducibilityReport{}, fmt.Errorf("experiments: unknown target %q", targetName)
	}
	if d <= 0 {
		d = 2 * time.Second
	}
	rep := ReproducibilityReport{Target: t.Name}

	// Fresh replayer over the ClosureX build (keys must be comparable, and
	// the naive build's baseline keys match: triage is kind@fn:line on the
	// same source).
	freshMod, err := core.Build(t.Short+".c", t.Source, core.ClosureX)
	if err != nil {
		return rep, err
	}
	reproduces := func(input []byte, key string) (bool, error) {
		v, err := vm.New(freshMod, vm.Options{})
		if err != nil {
			return false, err
		}
		defer v.Release()
		v.SetInput(input)
		res := v.Call(passes.TargetMain)
		return res.Fault != nil && res.Fault.Key() == key, nil
	}

	run := func(mech string) ([]*fuzz.Crash, error) {
		inst, err := core.NewInstance(t, mech, core.InstanceOptions{TrialSeed: seed})
		if err != nil {
			return nil, err
		}
		defer inst.Close()
		inst.Driver().RunFor(d)
		return inst.Driver().Crashes(), nil
	}

	naive, err := run("persistent-naive")
	if err != nil {
		return rep, err
	}
	for _, cr := range naive {
		rep.NaiveFound++
		ok, err := reproduces(cr.Input, cr.Key)
		if err != nil {
			return rep, err
		}
		if ok {
			rep.NaiveReproducible++
		}
	}
	cx, err := run("closurex")
	if err != nil {
		return rep, err
	}
	for _, cr := range cx {
		rep.ClosureXFound++
		ok, err := reproduces(cr.Input, cr.Key)
		if err != nil {
			return rep, err
		}
		if ok {
			rep.ClosureXReproducible++
		}
	}
	return rep, nil
}

// prevCrashProbe is the deterministic version of the stale-state
// non-reproducibility: a rich input, then a PREV-only input, in one naive
// process; the same pair under ClosureX; and the PREV input fresh.
type prevCrashProbe struct {
	naiveCrashed    bool
	freshCrashed    bool
	closurexCrashed bool
}

func provokePrevCrash() (prevCrashProbe, error) {
	var out prevCrashProbe
	t := targets.Get("gpmf-parser")
	// A rich input: the standard seed (many KLVs, sets last_run_klvs big).
	rich := t.Seeds()[0]
	// The victim input: a single PREV record.
	victim := klvDemo("PREV", 'L', 4, 1, []byte{0, 0, 0, 0})

	run := func(mech string) (bool, error) {
		mod, err := core.Build(t.Short+".c", t.Source, core.VariantFor(mech))
		if err != nil {
			return false, err
		}
		m, err := execmgr.New(mech, execmgr.Config{Module: mod})
		if err != nil {
			return false, err
		}
		defer m.Close()
		// Two rich runs: klv_count (itself stale) accumulates past the
		// scratch-buffer size, so last_run_klvs indexes out of bounds.
		m.Execute(rich)
		m.Execute(rich)
		res := m.Execute(victim)
		return res.Crashed(), nil
	}
	var err error
	if out.naiveCrashed, err = run("persistent-naive"); err != nil {
		return out, err
	}
	if out.freshCrashed, err = run("fresh"); err != nil {
		return out, err
	}
	if out.closurexCrashed, err = run("closurex"); err != nil {
		return out, err
	}
	return out, nil
}
