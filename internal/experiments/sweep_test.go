package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func mustSweep(t *testing.T, name string) Sweep {
	t.Helper()
	sw, err := FindSweep(Sweeps(), name)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestRunSanitizerOverhead exercises the sanitizer sweep end to end at a
// tiny budget: three rows in mode order, every mode actually executed, and
// coverage identical across modes (the differential guarantee). Throughput
// ordering is deliberately not asserted — wall-clock at this budget is
// noise; the JSON artifact from `make benchjson` is where the real overhead
// numbers live.
func TestRunSanitizerOverhead(t *testing.T) {
	rep, err := RunSweep(mustSweep(t, "sanitizer"), SweepOptions{Targets: []string{"sandefect"}, Execs: 400, Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rep.Rows))
	}
	wantModes := []string{"off", "on", "on+elide"}
	for i, r := range rep.Rows {
		if r.Mode != wantModes[i] {
			t.Errorf("row %d mode = %q, want %q", i, r.Mode, wantModes[i])
		}
		if r.Execs < 400 {
			t.Errorf("mode %s ran only %d execs", r.Mode, r.Execs)
		}
		if r.Edges != rep.Rows[0].Edges {
			t.Errorf("mode %s coverage %d differs from off-mode %d", r.Mode, r.Edges, rep.Rows[0].Edges)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_sanitizer.json")
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Sweep != "sanitizer" || len(back.Rows) != 3 || back.Rows[0].Target != "sandefect" {
		t.Fatalf("JSON round-trip mangled report: %+v", back)
	}
}

func TestRunSanitizerOverheadUnknownTarget(t *testing.T) {
	if _, err := RunSweep(mustSweep(t, "sanitizer"), SweepOptions{Targets: []string{"no-such-target"}, Execs: 10, Seed: 1}); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// TestRunSynthGainSmall pins the synth sweep's contract at a small exec
// budget: synthesis succeeds for at least 3 benchmark targets, zero CLX130
// certification failures, and every synthesized campaign's merged coverage
// strictly contains the manual-only run.
func TestRunSynthGainSmall(t *testing.T) {
	rep, err := RunSweep(mustSweep(t, "synth"), SweepOptions{Execs: 200, Seed: 1})
	if err != nil {
		t.Fatalf("synth sweep: %v", err)
	}
	if v := rep.Gates["clx130"]; !v.Pass {
		t.Fatalf("CLX130 certification failures: %s", v.Detail)
	}
	cells := SynthCells(rep)
	if len(cells) < 3 {
		t.Fatalf("synthesized %d targets, want >= 3", len(cells))
	}
	for _, c := range cells {
		if c.New == 0 {
			t.Errorf("%s: synthesized but merged coverage is not a strict superset (manual=%d synth=%d merged=%d)",
				c.Target, c.Manual, c.Synth, c.Merged)
		}
		if c.Merged < c.Manual {
			t.Errorf("%s: merged %d < manual %d", c.Target, c.Merged, c.Manual)
		}
	}
}

// TestRunSynthGainDeterministic: two runs from the same seed must agree
// cell for cell — the campaigns are deterministic and synthesis is static.
func TestRunSynthGainDeterministic(t *testing.T) {
	run := func() *Report {
		rep, err := RunSweep(mustSweep(t, "synth"), SweepOptions{Execs: 100, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Target != rb.Target || ra.Mode != rb.Mode || ra.Execs != rb.Execs ||
			ra.Edges != rb.Edges || ra.Corpus != rb.Corpus || ra.digest != rb.digest {
			t.Errorf("row %d (%s/%s) diverged between identical runs:\n  %+v\n  %+v", i, ra.Target, ra.Mode, ra, rb)
		}
	}
	ca, cb := SynthCells(a), SynthCells(b)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Errorf("cells diverged: %+v vs %+v", ca[i], cb[i])
		}
	}
}

// naivePair pairs gpmf-parser's ClosureX campaign with its persistent-naive
// twin under an identity gate. Naive persistence lets the parser's state
// leak between test cases (the stale-state demonstration's target), so the
// campaigns diverge and the gate must fire. md4c's naive campaign is
// bit-identical to its fresh one under DeterministicRand, so it cannot
// serve here.
var naivePair = Sweep{Name: "naive-pair", Execs: 2000, Plan: func([]string) ([]Point, []Gate, error) {
	return []Point{
		{Target: "gpmf-parser", Mode: "fresh"},
		{Target: "gpmf-parser", Mechanism: "persistent-naive", Mode: "naive"},
	}, []Gate{IdentityGate("all_identical")}, nil
}}

func TestIdentityGateFiresOnNaivePair(t *testing.T) {
	rep, err := RunSweep(naivePair, SweepOptions{Seed: 0x5eed})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Gates["all_identical"]; v.Pass || rep.Pass {
		t.Fatalf("identity gate passed a persistent-naive campaign: %+v", v)
	}
	// The same gate over two fresh-state campaigns holds.
	same := Sweep{Name: "fresh-pair", Execs: 2000, Plan: func([]string) ([]Point, []Gate, error) {
		return []Point{{Target: "gpmf-parser", Mode: "a"}, {Target: "gpmf-parser", Mode: "b"}}, []Gate{IdentityGate("all_identical")}, nil
	}}
	if rep, err = RunSweep(same, SweepOptions{Seed: 0x5eed}); err != nil || !rep.Pass {
		t.Fatalf("identity gate failed two identical campaigns: %v %+v", err, rep.Gates)
	}
}
