package fuzz

import (
	"bytes"
	"fmt"

	"closurex/internal/vm"
)

// SentinelConfig arms the divergence sentinel: the paper's offline §6.1.4
// correctness study turned into a runtime self-check. Every Every campaign
// executions, one queue entry is replayed under the campaign's persistent
// mechanism AND under a fresh-process reference executor; their coverage
// edge sets and fault verdicts must agree. A mismatch means the persistent
// image has drifted from fresh-process semantics. In a ParallelCampaign
// each divergence is a fault on the shard's recovery ladder (see
// supervisor.go); a bare Campaign only records it.
type SentinelConfig struct {
	// Reference executes the replay in a fresh process image each time. It
	// must run the same instrumented module as the campaign's executor so
	// the two coverage maps share probe geometry.
	Reference Executor
	// RefCovMap is the reference executor's coverage map.
	RefCovMap []byte
	// Every is the probe period in campaign executions (0 disables).
	Every int64
}

// Divergence records one sentinel probe whose persistent-mechanism replay
// disagreed with the fresh-process reference.
type Divergence struct {
	// Exec is the campaign execution count when the probe ran.
	Exec int64
	// Input is the replayed queue entry.
	Input []byte
	// Reason describes the mismatch ("fault ..." or "edges ...").
	Reason string
}

// Divergences returns the sentinel's findings so far.
func (c *Campaign) Divergences() []Divergence { return c.divergences }

// Quarantined returns the inputs pulled out of rotation: entries the
// sentinel found divergent and inputs whose execution broke the image.
func (c *Campaign) Quarantined() []*Entry { return c.quarantined }

// sentinelProbe replays one queue entry under both executors and compares.
// Probe replays do not count as campaign executions and do not feed the
// cumulative bitmap, so arming the sentinel never perturbs the mutation
// stream — a campaign with and without divergences stays deterministic in
// everything except the sentinel's own bookkeeping.
func (c *Campaign) sentinelProbe() {
	s := c.cfg.Sentinel
	if len(c.queue) == 0 {
		c.sentNext = c.execs + s.Every
		return
	}
	e := c.queue[uint(c.sentCursor)%uint(len(c.queue))] // wraps like Step's cursor
	c.sentCursor++

	zeroMap(c.cfg.CovMap)
	resP := c.cfg.Executor.Execute(e.Input)
	pEdges := edgeSet(c.cfg.CovMap)
	zeroMap(s.RefCovMap)
	resR := s.Reference.Execute(e.Input)
	rEdges := edgeSet(s.RefCovMap)

	reason := ""
	switch {
	case resultKey(resP) != resultKey(resR):
		reason = fmt.Sprintf("result %s vs fresh %s", resultKey(resP), resultKey(resR))
	case !sameEdgeSet(pEdges, rEdges):
		reason = fmt.Sprintf("edge set %d vs fresh %d (symmetric difference %d)",
			len(pEdges), len(rEdges), edgeSetDiff(pEdges, rEdges))
	}
	if reason == "" {
		c.sentBackoff = 1
		c.sentNext = c.execs + s.Every
		return
	}

	c.divergences = append(c.divergences, Divergence{
		Exec:   c.execs,
		Input:  append([]byte(nil), e.Input...),
		Reason: reason,
	})
	c.quarantineEntry(e)
	// Back off: a diverging image is being rebuilt (or is beyond help), so
	// probing at full cadence would only burn executions re-confirming it.
	c.sentBackoff *= 2
	c.sentNext = c.execs + s.Every*c.sentBackoff
}

// quarantineEntry removes e from the queue (keeping at least one entry so
// mutation always has a basis) and parks it in the quarantine list.
func (c *Campaign) quarantineEntry(e *Entry) {
	if len(c.queue) <= 1 {
		c.quarantined = append(c.quarantined, e)
		return
	}
	for i, q := range c.queue {
		if q == e {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	c.quarantined = append(c.quarantined, e)
	if c.cur == e {
		// Don't keep mutating from a quarantined basis.
		c.burst = 0
	}
}

// quarantineLast quarantines the input of the most recent execution: the
// newest queue entry when that execution added it, otherwise a new entry.
func (c *Campaign) quarantineLast() {
	if n := len(c.queue); n > 0 && bytes.Equal(c.queue[n-1].Input, c.last) {
		c.quarantineEntry(c.queue[n-1])
		return
	}
	c.quarantined = append(c.quarantined, &Entry{Input: append([]byte(nil), c.last...), FoundAt: c.Elapsed()})
}

// zeroMap clears a coverage map.
func zeroMap(m []byte) {
	for i := range m {
		m[i] = 0
	}
}

// edgeSet collects the indices of non-zero coverage cells and clears the
// map for the next execution.
func edgeSet(m []byte) map[int]struct{} {
	out := make(map[int]struct{})
	for i, v := range m {
		if v != 0 {
			out[i] = struct{}{}
			m[i] = 0
		}
	}
	return out
}

func sameEdgeSet(a, b map[int]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if _, ok := b[i]; !ok {
			return false
		}
	}
	return true
}

func edgeSetDiff(a, b map[int]struct{}) int {
	n := 0
	for i := range a {
		if _, ok := b[i]; !ok {
			n++
		}
	}
	for i := range b {
		if _, ok := a[i]; !ok {
			n++
		}
	}
	return n
}

// resultKey summarizes an execution outcome for equivalence comparison:
// the fault triage key (hang-bucketed for timeouts), the exit status, or a
// normal return.
func resultKey(r vm.Result) string {
	switch {
	case r.Fault != nil && r.Fault.Kind == vm.FaultTimeout:
		return HangKey(r.Fault)
	case r.Fault != nil:
		return r.Fault.Key()
	case r.Exited:
		return fmt.Sprintf("exit(%d)", r.ExitCode)
	default:
		return fmt.Sprintf("ret(%d)", r.Ret)
	}
}
