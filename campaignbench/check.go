package main

import (
	"bytes"
	"fmt"

	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/harness"
	"closurex/internal/ir"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// finished is what the output checks read from a finished campaign.
type finished struct {
	target *targets.Target
	mod    *ir.Module
	// mech is the persistent mechanism the campaign ran on (shard 0 of a
	// fleet); cov is its coverage buffer and randSeed its VM rand seed.
	mech     execmgr.Mechanism
	cov      []byte
	randSeed uint64
	virgin   []byte
	queue    []*fuzz.Entry
	crashes  []*fuzz.Crash
	hangs    []*fuzz.Crash
}

// checkReplays is the §6.1.4 equivalence check against a reference that
// performs no restore: every queue entry and stored crash or hang input is
// replayed in a brand-new fresh image. A queue entry must not fault, its
// coverage must lie inside the campaign's virgin map, and its replay on
// the campaign's own persistent image must give the same result and the
// same classified coverage as the fresh one. A crash or hang input must
// reproduce its key.
func checkReplays(f finished, t *tally) {
	refCov := make([]byte, fuzz.MapSize)
	ref, err := execmgr.NewFresh(execmgr.Config{
		Module: f.mod, CovMap: refCov, DeterministicRand: true, RandSeed: f.randSeed,
	})
	if err != nil {
		t.check(false, "%s: fresh reference: %v", f.target.Name, err)
		return
	}
	for i, e := range f.queue {
		clear(f.cov)
		resP := f.mech.Execute(e.Input)
		persistent := classified(f.cov)
		clear(refCov)
		resF := ref.Execute(e.Input)
		fresh := classified(refCov)
		t.check(resF.Fault == nil, "%s: queue entry %d faults in a fresh image: %s",
			f.target.Name, i, resultKey(resF))
		t.check(inside(fresh, f.virgin), "%s: queue entry %d covers cells outside the campaign's virgin map",
			f.target.Name, i)
		t.check(resultKey(resP) == resultKey(resF) && bytes.Equal(persistent, fresh),
			"%s: queue entry %d: persistent replay %s diverges from fresh %s",
			f.target.Name, i, resultKey(resP), resultKey(resF))
	}
	for _, table := range [][]*fuzz.Crash{f.crashes, f.hangs} {
		for _, c := range table {
			res := ref.Execute(c.Input)
			t.check(res.Fault != nil && resultKey(res) == c.Key, "%s: stored input for %s replays as %s",
				f.target.Name, c.Key, resultKey(res))
		}
	}
	clear(f.cov)
}

// checkBugs runs every planted bug's trigger on the campaign's mechanism
// and checks the fault against the kind and function the target registry
// records for it.
func checkBugs(f finished, t *tally) {
	for _, b := range f.target.Bugs {
		res := f.mech.Execute(b.Trigger)
		got := "no fault"
		if res.Fault != nil {
			got = fmt.Sprintf("%s in %s", res.Fault.Kind, res.Fault.Fn)
		}
		t.check(res.Fault != nil && res.Fault.Kind == b.Kind && res.Fault.Fn == b.Func,
			"%s: planted bug %s: got %s, want %s in %s", f.target.Name, b.ID, got, b.Kind, b.Func)
	}
	clear(f.cov)
}

// checkImage drains the restore error of a ClosureX mechanism's last
// execution and runs the harness watchdog on its image.
func checkImage(name string, m execmgr.Mechanism, t *tally) {
	cx, ok := m.(*execmgr.ClosureX)
	if !ok {
		return
	}
	h := cx.Harness()
	err := h.TakeRestoreError()
	t.check(err == nil, "%s: restore: %v", name, err)
	err = h.Verify()
	t.check(err == nil, "%s: %v", name, err)
}

// basePages is how many pages an image of mod holds with no program image
// pages, after the harness's deferred init: the pages every spawn holds
// beyond the modeled ImagePages.
func basePages(mod *ir.Module, randSeed uint64) (int, error) {
	v, err := vm.New(mod, vm.Options{DeterministicRand: true, RandSeed: randSeed})
	if err != nil {
		return 0, err
	}
	defer v.Release()
	if _, err := harness.New(v, harness.FullRestore()); err != nil {
		return 0, err
	}
	return v.Mem.Pages(), nil
}

// checkPages is the modeled OS cost guard: a spawned image must hold the
// target's ImagePages, read at run time, on top of its base pages.
func checkPages(t *tally, target *targets.Target, pages, base int) {
	t.check(pages-base == target.ImagePages, "%s: spawn holds %d image pages, ImagePages is %d",
		target.Name, pages-base, target.ImagePages)
}

// classified returns a copy of a raw trace map bucketed into hit-count
// classes.
func classified(trace []byte) []byte {
	out := append([]byte(nil), trace...)
	fuzz.Classify(out)
	return out
}

// inside reports whether every class bit set in cov is set in virgin.
func inside(cov, virgin []byte) bool {
	for i, v := range cov {
		if virgin[i]&v != v {
			return false
		}
	}
	return true
}

// resultKey names an execution's outcome the way the campaign triages it.
func resultKey(r vm.Result) string {
	switch {
	case r.Fault != nil && r.Fault.Kind == vm.FaultTimeout:
		return fuzz.HangKey(r.Fault)
	case r.Fault != nil:
		return r.Fault.Key()
	case r.Exited:
		return fmt.Sprintf("exit(%d)", r.ExitCode)
	}
	return fmt.Sprintf("ret(%d)", r.Ret)
}
