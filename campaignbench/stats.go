package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean returns the geometric mean of positive xs (0 if any is not
// positive, or for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tally counts attempted and failed operations. An operation is a campaign
// execution or one correctness check; a failure is a restore or watchdog
// error, a replay mismatch, a wrong planted-bug verdict, a modeled-cost
// guard miss, a traced-run digest mismatch, or a shard restart or
// quarantine. Target crashes are not failures.
type tally struct {
	attempted, failed int64
	notes             []string // the first few failures, for the report
}

const maxNotes = 20

// ops records n operations that cannot fail individually.
func (t *tally) ops(n int64) { t.attempted += n }

// check records one checked operation; format describes it when !ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// failFrac is failed operations over attempted operations.
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
