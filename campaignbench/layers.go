package main

import (
	"time"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/targets"
)

// layerAcc accumulates the traced run's per-layer figures over every
// target and round of a workload.
type layerAcc struct {
	epoch time.Time
	// lastTracers hold the spans of the current round; the last round's
	// are written out when the run ends.
	lastTracers []*Tracer

	loop         layerTotals // interp traced loop, measured part only
	compiledCall int64       // vm.call ns on the compiled backend
	compiledExec int64
	execs        int64
	instrs       int64
	cells, gains int64
	// Spawn figures cover whole traced campaigns: the first image, and
	// every crash respawn in the bootstrap and the loop.
	spawns       int64
	spawnNs      int64
	pagesSum     int64
	allExecs     int64
	restoreBytes int64
	chunksFreed  int64
	fdsClosed    int64
	tracedWall   int64 // traced loop wall time
	untracedWall int64 // the same campaigns untraced
	executeNs    []float64

	// Per round: set-up phase totals over the workload's targets.
	compileMs, instrumentMs, buildMs, bootstrapMs []float64
	irInstrs                                      int

	// Shard figures: from the fleet run for jobs > 1, from the traced
	// J=1 loop otherwise (one shard).
	busyFrac   []float64
	skew       []float64
	outsideNs  int64
	outsideExe int64
	inboxDrop  int64
	restarts   int64

	goExecs int64
	goDelta goStats
	goCPU   time.Duration
}

func newLayerAcc() *layerAcc { return &layerAcc{epoch: time.Now()} }

func (a *layerAcc) beginRound() {
	a.lastTracers = a.lastTracers[:0]
	a.compileMs = append(a.compileMs, 0)
	a.instrumentMs = append(a.instrumentMs, 0)
	a.buildMs = append(a.buildMs, 0)
	a.bootstrapMs = append(a.bootstrapMs, 0)
	a.irInstrs = 0
}

// traceTarget runs the traced copies of target t's campaign for round
// seed seed, given its untraced run u: the interp loop (checked against
// the untraced J=1 digest), the same loop on the compiled backend, and for
// fleets the J=jobs campaign with every shard's Execute timed.
func (a *layerAcc) traceTarget(t *targets.Target, wl workload, seed uint64, run int32, u targetRun, chk *tally) error {
	a.goExecs += u.execs
	a.goDelta = a.goDelta.add(u.goDelta)
	a.goCPU += u.cpu
	a.inboxDrop += u.inboxDropped
	a.restarts += u.restarts

	ref := u
	if wl.jobs > 1 {
		var err error
		if ref, err = runUntraced(t, 1, wl.execs, seed, true, chk); err != nil {
			return err
		}
	}
	hint := int(wl.execs) * 6
	r := len(a.compileMs) - 1

	tr := NewTracer(a.epoch, hint)
	a.lastTracers = append(a.lastTracers, tr)
	l, sr, err := newTracedLoop(tr, run, t, seed, "", wl.execs, chk)
	if err != nil {
		return err
	}
	a.compileMs[r] += ms(sr.compile)
	a.instrumentMs[r] += ms(sr.instrument)
	a.buildMs[r] += ms(sr.build)
	a.bootstrapMs[r] += ms(sr.bootstrap)
	a.irInstrs += sr.irInstrs
	execs0 := l.resetCounters()
	first := len(tr.Spans)
	l.runExecs(wl.execs)
	l.close()
	chk.check(l.digest() == ref.digest, "%s: traced loop digest differs from the untraced campaign", t.Name)
	a.loop.add(tr.Spans, first)
	n := l.execs - execs0
	wall := tr.Spans[first].End - tr.Spans[first].Start
	a.execs += n
	a.instrs += l.instrs
	a.gains += l.gains
	a.spawns += l.spawns
	a.spawnNs += l.spawnNs
	a.pagesSum += l.pagesSum
	a.allExecs += l.execs
	b, c, f := l.restoreStats()
	a.restoreBytes += b
	a.chunksFreed += c
	a.fdsClosed += f
	a.tracedWall += wall
	a.untracedWall += int64(ref.wall)
	if wl.jobs == 1 {
		var busy int64
		for _, d := range l.execNs {
			busy += d
			a.executeNs = append(a.executeNs, float64(d))
		}
		a.busyFrac = append(a.busyFrac, float64(busy)/float64(wall))
		a.skew = append(a.skew, 1)
		a.outsideNs += wall - busy
		a.outsideExe += n
	}

	ctr := NewTracer(a.epoch, hint)
	cl, _, err := newTracedLoop(ctr, run, t, seed, core.CompiledBackend, wl.execs, chk)
	if err != nil {
		return err
	}
	cexecs0 := cl.resetCounters()
	cfirst := len(ctr.Spans)
	cl.runExecs(wl.execs)
	cl.close()
	chk.check(cl.digest() == ref.digest, "%s: compiled traced loop digest differs from the untraced campaign", t.Name)
	var cl2 layerTotals
	cl2.add(ctr.Spans, cfirst)
	a.compiledCall += cl2.dur[LCall]
	a.compiledExec += cl.execs - cexecs0
	a.cells += cl.cells

	if wl.jobs > 1 {
		return a.traceFleet(t, wl, seed, run, chk)
	}
	return nil
}

// traceFleet runs the J=jobs campaign with each shard's executor wrapped
// in a timer.
func (a *layerAcc) traceFleet(t *targets.Target, wl workload, seed uint64, run int32, chk *tally) error {
	mod, err := core.Build(t.Short+".c", t.Source, core.ClosureX)
	if err != nil {
		return err
	}
	var shards []fuzz.ShardConfig
	var timed []*timedExec
	defer func() {
		for _, te := range timed {
			te.inner.Close()
		}
	}()
	for j := 0; j < wl.jobs; j++ {
		cov := make([]byte, fuzz.MapSize)
		m, err := execmgr.New("closurex", execmgr.Config{
			Module: mod, CovMap: cov, ImagePages: t.ImagePages,
			DeterministicRand: true, RandSeed: fuzz.ShardSeed(seed, j),
		})
		if err != nil {
			return err
		}
		te := &timedExec{inner: m, tr: NewTracer(a.epoch, int(wl.execs)), run: run}
		timed = append(timed, te)
		a.lastTracers = append(a.lastTracers, te.tr)
		shards = append(shards, fuzz.ShardConfig{Executor: te, CovMap: cov})
	}
	p, err := fuzz.NewParallelCampaign(fuzz.ParallelConfig{
		Shards: shards, Seed: seed, Fingerprint: t.Name + "@closurex",
		Seeds: t.Seeds(), MaxInputLen: t.MaxInputLen, Dict: targetDict(t),
	})
	if err != nil {
		return err
	}
	for j := range timed {
		p.Shard(j).Step()
	}
	for _, te := range timed {
		te.execs, te.busy = 0, 0
		te.tr.Spans = te.tr.Spans[:0]
	}
	w0 := time.Now()
	p.RunExecs(wl.execs)
	wall := int64(time.Since(w0))
	minE, maxE := timed[0].execs, timed[0].execs
	var busy, execs int64
	for _, te := range timed {
		a.busyFrac = append(a.busyFrac, float64(te.busy)/float64(wall))
		busy += te.busy
		execs += te.execs
		minE, maxE = min(minE, te.execs), max(maxE, te.execs)
		for _, s := range te.tr.Spans {
			a.executeNs = append(a.executeNs, float64(s.End-s.Start))
		}
	}
	a.skew = append(a.skew, per(maxE, minE))
	a.outsideNs += int64(len(timed))*wall - busy
	a.outsideExe += execs
	for _, h := range p.Health() {
		chk.check(h.Restarts == 0 && !h.Quarantined, "%s: traced shard %d: %d restart(s), quarantined=%v",
			t.Name, h.Shard, h.Restarts, h.Quarantined)
	}
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func per(x, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(x) / float64(n)
}

// metrics turns the accumulated figures into the per-layer metrics.
func (a *layerAcc) metrics() map[string]metric {
	lt := &a.loop
	n := a.execs
	return map[string]metric{
		"lower.compile_ms":           {median(a.compileMs), "ms"},
		"passes.instrument_ms":       {median(a.instrumentMs), "ms"},
		"execmgr.build_ms":           {median(a.buildMs), "ms"},
		"fuzz.bootstrap_ms":          {median(a.bootstrapMs), "ms"},
		"ir.instrs":                  {float64(a.irInstrs), "count"},
		"fuzz.mutate_ns":             {per(lt.dur[LMutate], n), "ns/exec"},
		"vm.call_ns":                 {per(lt.dur[LCall], n), "ns/exec"},
		"vm.instrs":                  {per(a.instrs, n), "count/exec"},
		"vm.ns_per_instr":            {per(lt.dur[LCall], a.instrs), "ns"},
		"vm.call_ns.compiled":        {per(a.compiledCall, a.compiledExec), "ns/exec"},
		"harness.restore_ns":         {per(lt.dur[LRestore], n), "ns/exec"},
		"harness.restore_bytes":      {per(a.restoreBytes, n), "B/exec"},
		"harness.chunks_freed":       {per(a.chunksFreed, n), "count/exec"},
		"harness.fds_closed":         {per(a.fdsClosed, n), "count/exec"},
		"fuzz.merge_ns":              {per(lt.dur[LMerge], n), "ns/exec"},
		"fuzz.merge_cells":           {per(a.cells, n), "count/exec"},
		"fuzz.gain_ratio":            {per(a.gains, n), "ratio"},
		"fuzz.loop_self_ns":          {per(lt.self[LCampaign], n), "ns/exec"},
		"execmgr.respawn_ms":         {per(a.spawnNs, a.spawns) / 1e6, "ms/spawn"},
		"execmgr.spawns_per_kexec":   {per(a.spawns*1000, a.allExecs), "1/kexec"},
		"execmgr.pages_per_spawn":    {per(a.pagesSum, a.spawns), "pages/spawn"},
		"execmgr.execute_us.p50":     {quantile(a.executeNs, 0.5) / 1e3, "us"},
		"execmgr.execute_us.p99":     {quantile(a.executeNs, 0.99) / 1e3, "us"},
		"execmgr.execute_samples":    {float64(len(a.executeNs)), "count"},
		"fuzz.shard_exec_busy_frac":  {mean(a.busyFrac), "ratio"},
		"fuzz.shard_skew":            {median(a.skew), "ratio"},
		"fuzz.shard_outside_exec_ns": {per(a.outsideNs, a.outsideExe), "ns/exec"},
		"fuzz.inbox_dropped":         {float64(a.inboxDrop), "count"},
		"fuzz.shard_restarts":        {float64(a.restarts), "count"},
		"go.allocs_per_exec":         {a.goDelta.allocs / float64(max(a.goExecs, 1)), "count/exec"},
		"go.alloc_bytes_per_exec":    {a.goDelta.allocBytes / float64(max(a.goExecs, 1)), "B/exec"},
		"go.gc_cpu_frac":             {a.goDelta.gcCPU / a.goCPU.Seconds(), "ratio"},
		"trace.overhead_frac":        {per(a.tracedWall, a.untracedWall) - 1, "ratio"},
	}
}
