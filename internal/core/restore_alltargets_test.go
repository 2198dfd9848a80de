package core

import (
	"bytes"
	"testing"

	"closurex/internal/execmgr"
	"closurex/internal/harness"
	"closurex/internal/ir"
	"closurex/internal/targets"
)

const (
	restoreAllSeed  = 0xD1FF
	restoreAllExecs = 300
)

// closurexHarness builds a closurex instance of tgt and returns its
// harness, driven directly below: a campaign's crash respawns would
// replace it mid-run.
func closurexHarness(t *testing.T, tgt *targets.Target, hopts *harness.Options) (*harness.Harness, func()) {
	t.Helper()
	// DeterministicRand pins the modeled per-VM rand()/heap-ASLR entropy,
	// so the two images below execute every input identically.
	inst, err := NewInstance(tgt, "closurex", InstanceOptions{
		TrialSeed:         restoreAllSeed,
		DeterministicRand: true,
		HarnessOpts:       hopts,
	})
	if err != nil {
		t.Fatal(err)
	}
	cx, ok := inst.Mech.(*execmgr.ClosureX)
	if !ok {
		inst.Close()
		t.Fatalf("mechanism %T is not *execmgr.ClosureX", inst.Mech)
	}
	return cx.Harness(), inst.Close
}

// TestRestoreAllTargetsMatchesFullCopy drives the default closurex image of
// every registered target (dirty-page restore) and a full-copy reference
// (IncrementalRestore=false) through the same seed executions. After each
// one the watchdog must find the default image clean, and its
// closure_global_section must be byte-equal to the reference's.
func TestRestoreAllTargetsMatchesFullCopy(t *testing.T) {
	for _, tgt := range targets.All() {
		tgt := tgt
		t.Run(tgt.Short, func(t *testing.T) {
			h, closeH := closurexHarness(t, tgt, nil)
			defer closeH()
			full := harness.FullRestore()
			full.IncrementalRestore = false
			ref, closeRef := closurexHarness(t, tgt, &full)
			defer closeRef()
			if !h.Incremental() || ref.Incremental() {
				t.Fatalf("restore paths: default incremental=%v, reference incremental=%v",
					h.Incremental(), ref.Incremental())
			}
			seeds := tgt.Seeds()
			if len(seeds) == 0 {
				t.Fatal("target has no seeds")
			}
			for i := 0; i < restoreAllExecs; i++ {
				in := seeds[i%len(seeds)]
				res, rres := h.RunOne(in), ref.RunOne(in)
				if res.Crashed() != rres.Crashed() || res.Exited != rres.Exited {
					t.Fatalf("exec %d: verdicts diverge: crashed %v/%v exited %v/%v",
						i, res.Crashed(), rres.Crashed(), res.Exited, rres.Exited)
				}
				if err := h.TakeRestoreError(); err != nil {
					t.Fatalf("exec %d: restore: %v", i, err)
				}
				if err := h.Verify(); err != nil {
					t.Fatalf("exec %d: %v", i, err)
				}
				got, _ := h.VM().SnapshotSection(ir.SectionClosure)
				want, _ := ref.VM().SnapshotSection(ir.SectionClosure)
				if !bytes.Equal(got, want) {
					t.Fatalf("exec %d: post-restore %s differs from the full-copy reference",
						i, ir.SectionClosure)
				}
			}
			if st := h.Stats(); st.IncrRestores != restoreAllExecs {
				t.Errorf("IncrRestores = %d, want %d", st.IncrRestores, restoreAllExecs)
			}
		})
	}
}
