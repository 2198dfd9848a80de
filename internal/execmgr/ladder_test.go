package execmgr

import (
	"strings"
	"testing"
	"time"

	"closurex/internal/faultinject"
	"closurex/internal/fuzz"
	"closurex/internal/vm"
)

// The recovery ladder lives in the fuzz shard supervisor; these tests drive
// it over a real ClosureX image, wired the way core wires every closurex
// shard: Rebuild builds a fresh ClosureX, Fallback a ForkServer over the
// same module.

// hangSrc is statefulSrc's shape with an input that never terminates.
const hangSrc = `
int runs;
int main(void) {
	runs++;
	int f = fopen("/input", "r");
	if (!f) abort();
	int c = fgetc(f);
	if (c < 0) c = 0;
	fclose(f);
	while (c == 'H') runs++;
	return 100 * runs + c;
}
`

// ladderFleet is a one-shard fleet over a ClosureX mechanism; mech is the
// shard's current mechanism (swapped by the rebuild and fallback rungs).
type ladderFleet struct {
	p    *fuzz.ParallelCampaign
	mech Mechanism
	cov  []byte
}

func newLadderFleet(t *testing.T, src string, inj *faultinject.Injector, sup fuzz.SupervisorConfig, seeds ...string) *ladderFleet {
	t.Helper()
	cfg := Config{Module: buildModule(t, src, true), Injector: inj, Budget: 20000}
	lf := &ladderFleet{}
	replacement := func(name string) func() (fuzz.Executor, []byte, error) {
		return func() (fuzz.Executor, []byte, error) {
			c := cfg
			c.CovMap = make([]byte, fuzz.MapSize)
			m, err := New(name, c)
			if err != nil {
				return nil, nil, err
			}
			if lf.mech != nil {
				lf.mech.Close()
			}
			lf.mech, lf.cov = m, c.CovMap
			return m, c.CovMap, nil
		}
	}
	if _, _, err := replacement("closurex")(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lf.mech.Close() })
	var in [][]byte
	for _, s := range seeds {
		in = append(in, []byte(s))
	}
	sup.Backoff = time.Microsecond
	p, err := fuzz.NewParallelCampaign(fuzz.ParallelConfig{
		Shards: []fuzz.ShardConfig{{Executor: lf.mech, CovMap: lf.cov,
			Rebuild: replacement("closurex"), Fallback: replacement("forkserver")}},
		Seed: 1, Seeds: in, MaxInputLen: 16, SyncEvery: 8, Supervisor: sup,
	})
	if err != nil {
		t.Fatal(err)
	}
	lf.p = p
	return lf
}

func (lf *ladderFleet) health() fuzz.ShardHealth { return lf.p.Health()[0] }

func (lf *ladderFleet) eventKinds() []string {
	var kinds []string
	for _, e := range lf.p.Events() {
		kinds = append(kinds, e.Kind)
	}
	return kinds
}

func TestRestoreFailureQuarantinesAndRebuilds(t *testing.T) {
	inj := faultinject.New(7)
	lf := newLadderFleet(t, statefulSrc, inj, fuzz.SupervisorConfig{MaxRestarts: 3}, "a", "b")

	// Bootstrap runs the seeds "a" then "b"; the restore after "b" fails.
	inj.FailAfter(faultinject.RestoreGlobals, 1, 1)
	lf.p.RunExecs(2)
	// The iteration's own result stands: "b" did not crash.
	if n := len(lf.p.Crashes()); n != 0 {
		t.Fatalf("failing exec's own result corrupted: %d crashes", n)
	}
	if h := lf.health(); h.Rebuilds != 1 || h.RestoreFailures != 1 {
		t.Fatalf("Rebuilds = %d, RestoreFailures = %d, want 1, 1", h.Rebuilds, h.RestoreFailures)
	}
	q := lf.p.Quarantined()
	if len(q) != 1 || string(q[0].Input) != "b" {
		t.Fatalf("Quarantined = %d entries, want [b]", len(q))
	}
	if h := lf.health(); h.MechDegraded {
		t.Fatalf("fell back after a single failure: %s", h.LastFault)
	}

	// The rebuilt image serves clean, isolated executions again.
	lf.p.RunExecs(500)
	for i := 0; i < 5; i++ {
		if res := lf.mech.Execute([]byte("a")); res.Fault != nil || res.Ret != 100+'a' {
			t.Fatalf("post-rebuild exec %d: %+v", i, res)
		}
	}
	if kinds := lf.eventKinds(); strings.Join(kinds, ",") != "restore-failure,rebuild" {
		t.Fatalf("event log = %v", kinds)
	}
}

func TestWatchdogPassResetsFailureStreak(t *testing.T) {
	inj := faultinject.New(8)
	lf := newLadderFleet(t, statefulSrc, inj, fuzz.SupervisorConfig{MaxRestarts: 1}, "a")
	lf.p.RunExecs(1)

	// Three isolated failures, each followed by a sync boundary with
	// progress (and a clean watchdog pass). Were the streak not closed by
	// the boundary, the third failure would reach MaxRestarts+2 and fall
	// back to the forkserver.
	for cycle := 0; cycle < 3; cycle++ {
		inj.FailAfter(faultinject.RestoreGlobals, 0, 1)
		lf.p.RunExecs(lf.p.Execs() + 20)
		if res := lf.mech.Execute([]byte("a")); res.Fault != nil || res.Ret != 100+'a' {
			t.Fatalf("cycle %d clean exec: %+v", cycle, res)
		}
	}
	h := lf.health()
	if h.Rebuilds != 3 {
		t.Fatalf("Rebuilds = %d, want 3", h.Rebuilds)
	}
	if h.MechDegraded {
		t.Fatalf("isolated failures fell back to the forkserver: %s", h.LastFault)
	}
}

func TestPersistentFailureDegradesToForkServer(t *testing.T) {
	inj := faultinject.New(9)
	lf := newLadderFleet(t, statefulSrc, inj, fuzz.SupervisorConfig{MaxRestarts: 1}, "a")

	// Every restore fails from here on: rebuild, rebuild, then fall back.
	inj.FailAfter(faultinject.RestoreGlobals, 0, -1)
	lf.p.RunExecs(3)
	h := lf.health()
	if !h.MechDegraded {
		t.Fatalf("not fallen back after MaxRestarts+2 consecutive failures; events: %v", lf.eventKinds())
	}
	if lf.mech.Name() != "forkserver" {
		t.Fatalf("Name = %q", lf.mech.Name())
	}
	if h.Rebuilds != 2 {
		t.Fatalf("Rebuilds = %d, want MaxRestarts+1 = 2", h.Rebuilds)
	}
	reason := ""
	for _, e := range lf.p.Events() {
		if e.Kind == "fallback" {
			reason = e.Detail
		}
	}
	if !strings.Contains(reason, "consecutive") {
		t.Fatalf("fallback reason = %q", reason)
	}
	if n := len(lf.p.Quarantined()); n != 3 {
		t.Fatalf("Quarantined %d inputs, want 3", n)
	}

	// The campaign continues on the fallback: correct isolation (runs==1
	// each time), coverage still flowing into the shard's map.
	lf.p.RunExecs(200)
	if lf.p.Execs() < 200 || lf.mech.Execs() == 0 {
		t.Fatalf("campaign stalled on the fallback: %d execs, %d on the forkserver", lf.p.Execs(), lf.mech.Execs())
	}
	clear(lf.cov)
	for i := 0; i < 10; i++ {
		if res := lf.mech.Execute([]byte("a")); res.Fault != nil || res.Ret != 100+'a' {
			t.Fatalf("fallen-back exec %d: %+v", i, res)
		}
	}
	covered := 0
	for _, b := range lf.cov {
		if b != 0 {
			covered++
		}
	}
	if covered == 0 {
		t.Fatal("fallback executions produce no coverage")
	}
}

func TestCrashDoesNotTripTheLadder(t *testing.T) {
	for _, tc := range []struct {
		name, src, input string
		kind             vm.FaultKind
	}{
		{"crash", statefulSrc, "C", vm.FaultNullDeref}, // planted null deref
		{"hang", hangSrc, "H", vm.FaultTimeout},        // budget exhaustion
	} {
		t.Run(tc.name, func(t *testing.T) {
			seeds := []string{tc.input, tc.input, tc.input, tc.input, tc.input}
			lf := newLadderFleet(t, tc.src, nil, fuzz.SupervisorConfig{MaxRestarts: 1}, seeds...)
			lf.p.RunExecs(300)
			faults := append(lf.p.Crashes(), lf.p.Hangs()...)
			if len(faults) == 0 || faults[0].Kind != tc.kind || faults[0].Count < 5 {
				t.Fatalf("%s inputs did not fault with %v five times: %+v", tc.name, tc.kind, faults)
			}
			// Crashes and hangs are normal fuzzing outcomes: ClosureX respawns
			// internally but the ladder must not count them as faults.
			h := lf.health()
			if h.Rebuilds != 0 || h.Restarts != 0 || h.MechDegraded || len(lf.p.Quarantined()) != 0 {
				t.Fatalf("ladder engaged on %ss: rebuilds=%d restarts=%d fell back=%v quarantined=%d",
					tc.name, h.Rebuilds, h.Restarts, h.MechDegraded, len(lf.p.Quarantined()))
			}
			if res := lf.mech.Execute([]byte("a")); res.Fault != nil || res.Ret%100 != 'a' {
				t.Fatalf("post-%s exec: %+v", tc.name, res)
			}
		})
	}
}

// Campaign-level degradation: with restores permanently failing, the
// campaign crosses the fallback transition mid-run and keeps fuzzing —
// coverage stays monotone because the fleet's bitmap outlives every
// mechanism swap.
func TestCampaignSurvivesDegradation(t *testing.T) {
	inj := faultinject.New(10)
	lf := newLadderFleet(t, statefulSrc, inj, fuzz.SupervisorConfig{}, "a", "zz")
	inj.FailAfter(faultinject.RestoreGlobals, 0, -1)

	prevEdges := 0
	for batch := 0; batch < 6; batch++ {
		lf.p.RunExecs(int64((batch + 1) * 50))
		if e := lf.p.Edges(); e < prevEdges {
			t.Fatalf("batch %d: coverage regressed %d -> %d", batch, prevEdges, e)
		} else {
			prevEdges = e
		}
	}
	if !lf.health().MechDegraded {
		t.Fatal("permanent restore failure never fell back to the forkserver")
	}
	if lf.p.Execs() < 300 {
		t.Fatalf("campaign stalled at %d execs", lf.p.Execs())
	}
	if lf.p.Edges() == 0 {
		t.Fatal("no coverage accumulated")
	}
	if lf.p.QueueLen() == 0 {
		t.Fatal("queue empty")
	}
}
