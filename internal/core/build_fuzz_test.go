package core

import (
	"errors"
	"testing"

	"closurex/internal/analysis"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// FuzzBuild feeds arbitrary MinC source through the build front end:
// Compile, the ClosureX instrumentation pipeline, then the deep analysis
// verifier. Source is untrusted input (closurex-cc, closurex-lint -file and
// closurex-fuzz -file all accept user programs): every stage must reject
// bad input with an error or diagnostics, never panic. The seeds are the
// registered targets' sources.
func FuzzBuild(f *testing.F) {
	for _, t := range targets.All() {
		f.Add(t.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Compile("fuzz.c", src)
		if err != nil {
			return
		}
		out, err := InstrumentWith(m, BuildConfig{Variant: ClosureX})
		if err != nil {
			return
		}
		ds := analysis.Verify(out, vm.Builtins())
		if err := ds.Err(); ds.HasErrors() != (err != nil) || (err != nil && !errors.Is(err, analysis.ErrDiagnostics)) {
			t.Fatalf("diagnostics/error mismatch: HasErrors=%v err=%v", ds.HasErrors(), err)
		}
	})
}
