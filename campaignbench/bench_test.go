package main

import (
	"math"
	"testing"
	"time"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/harness"
	"closurex/internal/targets"
)

// campaignOn runs a short campaign of target under mechanism and returns
// what the output checks read.
func campaignOn(t *testing.T, target, mechanism string, hopts *harness.Options, execs int64) finished {
	t.Helper()
	tg := targets.Get(target)
	mod, err := core.Build(tg.Short+".c", tg.Source, core.VariantFor(mechanism))
	if err != nil {
		t.Fatal(err)
	}
	cov := make([]byte, fuzz.MapSize)
	mech, err := execmgr.New(mechanism, execmgr.Config{
		Module: mod, CovMap: cov, DeterministicRand: true, RandSeed: 1, HarnessOpts: hopts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mech.Close)
	c := fuzz.NewCampaign(fuzz.Config{Executor: mech, CovMap: cov, Seeds: tg.Seeds(), Seed: 1, MaxInputLen: tg.MaxInputLen})
	c.RunExecs(execs)
	return finished{
		target: tg, mod: mod, mech: mech, cov: cov, randSeed: 1,
		virgin: c.BitmapSnapshot(), queue: c.Queue(), crashes: c.Crashes(), hangs: c.Hangs(),
	}
}

func TestReplayCheckFlagsMechanismsThatSkipRestore(t *testing.T) {
	noGlobals := harness.FullRestore()
	noGlobals.RestoreGlobals = false
	cases := []struct {
		name      string
		mechanism string
		hopts     *harness.Options
		wantFail  bool
	}{
		{"closurex", "closurex", nil, false},
		{"persistent-naive", "persistent-naive", nil, true},
		{"closurex without RestoreGlobals", "closurex", &noGlobals, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var chk tally
			f := campaignOn(t, "md4c", tc.mechanism, tc.hopts, 3000)
			checkReplays(f, &chk)
			if got := chk.failed > 0; got != tc.wantFail {
				t.Fatalf("failed %d of %d replay checks, want failures=%v; notes: %v",
					chk.failed, chk.attempted, tc.wantFail, chk.notes)
			}
		})
	}
}

func TestTracedLoopReproducesCampaign(t *testing.T) {
	tg := targets.Get("md4c")
	const seed, execs = 5, 3000
	in, err := core.NewInstance(tg, "closurex", core.InstanceOptions{TrialSeed: seed, DeterministicRand: true})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	in.Campaign.RunExecs(execs)
	want := digestOf(in.Campaign)

	for _, backend := range []string{"", core.CompiledBackend} {
		var chk tally
		l, _, err := newTracedLoop(NewTracer(time.Now(), 0), 0, tg, seed, backend, 0, &chk)
		if err != nil {
			t.Fatal(err)
		}
		l.runExecs(execs)
		l.close()
		if l.digest() != want {
			t.Errorf("backend %q: traced loop digest differs from the campaign's", backend)
		}
		if chk.failed > 0 {
			t.Errorf("backend %q: %v", backend, chk.notes)
		}
	}
}

func TestSelfTimesSubtractNestedAndOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 100, Parent: -1},   // 0: root
		{Start: 10, End: 40, Parent: 0},    // 1: child
		{Start: 20, End: 30, Parent: 1},    // 2: grandchild
		{Start: 50, End: 60, Parent: 0},    // 3: child
		{Start: 55, End: 70, Parent: 0},    // 4: child overlapping 3
		{Start: 95, End: 120, Parent: 0},   // 5: child running past its parent
		{Start: 200, End: 210, Parent: -1}, // 6: another root
	}
	got := SelfTimes(spans)
	// Root: 100 minus the union [10,40) [50,70) [95,100) = 100-55.
	want := []int64{45, 20, 10, 10, 15, 25, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestGeomeanAndFailFrac(t *testing.T) {
	if g := geomean([]float64{1000, 4000, 2000}); math.Abs(g-2000) > 1e-9 {
		t.Errorf("geomean = %v, want 2000", g)
	}
	if g := geomean([]float64{5, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
	var a tally
	a.ops(997)
	a.check(true, "fine")
	a.check(false, "bad %d", 1)
	a.check(false, "bad %d", 2)
	if a.attempted != 1000 || a.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 1000 and 2", a.attempted, a.failed)
	}
	if f := a.failFrac(); f != 0.002 {
		t.Errorf("failFrac = %v, want 0.002", f)
	}
	if len(a.notes) != 2 || a.notes[0] != "bad 1" || a.notes[1] != "bad 2" {
		t.Errorf("notes = %q", a.notes)
	}
	var none tally
	if none.failFrac() != 0 {
		t.Errorf("failFrac of nothing = %v", none.failFrac())
	}
}

func TestSampleBetter(t *testing.T) {
	first := sample{rate: 100, cpuUs: 9, edges: 40, setupS: 0.2, rssMB: 30, digest: [32]byte{1}}
	again := sample{rate: 120, cpuUs: 10, edges: 41, setupS: 0.1, rssMB: 31, digest: [32]byte{2}}
	got := first.better(again)
	want := sample{rate: 120, cpuUs: 9, edges: 40, setupS: 0.1, rssMB: 30, digest: [32]byte{1}}
	if got != want {
		t.Errorf("better = %+v, want %+v", got, want)
	}
	if back := again.better(first); back.rate != 120 || back.cpuUs != 9 || back.edges != 41 {
		t.Errorf("better is not symmetric in its timings: %+v", back)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if q := quantile(xs, 0.99); math.Abs(q-4.96) > 1e-9 {
		t.Errorf("p99 = %v, want 4.96", q)
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input")
	}
}

func TestCountNonzero(t *testing.T) {
	m := make([]byte, fuzz.MapSize)
	m[0], m[7], m[8], m[4096], m[fuzz.MapSize-1] = 1, 128, 3, 255, 16
	if n := countNonzero(m); n != 5 {
		t.Errorf("countNonzero = %d, want 5", n)
	}
}
