package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"closurex/internal/experiments"
)

// TestSweepGateFailureExitsNonzero runs the CLI on an identity-gated pair
// whose second side is a persistent-naive campaign: the gate must fail, the
// report must still be written, and the process must exit nonzero.
func TestSweepGateFailureExitsNonzero(t *testing.T) {
	if path := os.Getenv("CLOSUREX_BENCH_JSON"); path != "" {
		sweeps = append(sweeps, experiments.Sweep{Name: "naive-pair", Execs: 2000,
			Plan: func([]string) ([]experiments.Point, []experiments.Gate, error) {
				return []experiments.Point{
					{Target: "gpmf-parser", Mode: "fresh"},
					{Target: "gpmf-parser", Mechanism: "persistent-naive", Mode: "naive"},
				}, []experiments.Gate{experiments.IdentityGate("all_identical")}, nil
			}})
		os.Args = []string{"closurex-bench", "-sweep", "naive-pair", "-trials", "1", "-json", path}
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "naive.json")
	cmd := exec.Command(os.Args[0], "-test.run=^TestSweepGateFailureExitsNonzero$")
	cmd.Env = append(os.Environ(), "CLOSUREX_BENCH_JSON="+path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("CLI exited %v on a failed gate:\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written before the failing exit: %v\n%s", err, out)
	}
	var rep experiments.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if v, ok := rep.Gates["all_identical"]; !ok || v.Pass || rep.Pass {
		t.Fatalf("report does not record the failed gate: %+v", rep.Gates)
	}
}
