package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/harness"
	"closurex/internal/ir"
	"closurex/internal/passes"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// Campaign knobs core.NewInstance leaves at the fuzz.NewCampaign defaults;
// the traced loop must use the same values to reproduce the campaign.
const (
	havocPerSeed   = 24
	spliceProb     = 40
	defaultMaxSize = 4096
)

// crashRec is one triage table row in the form the digest covers.
type crashRec struct {
	key       string
	count     int64
	firstExec int64
}

// campaignDigest hashes what a J=1 campaign produced: its virgin map, its
// queue in order, and its crash and hang tables.
func campaignDigest(virgin []byte, queue [][]byte, crashes, hangs []crashRec) [32]byte {
	h := sha256.New()
	h.Write(virgin)
	var n [8]byte
	for _, q := range queue {
		binary.LittleEndian.PutUint64(n[:], uint64(len(q)))
		h.Write(n[:])
		h.Write(q)
	}
	for _, table := range [][]crashRec{crashes, hangs} {
		sort.Slice(table, func(i, j int) bool { return table[i].key < table[j].key })
		for _, c := range table {
			fmt.Fprintf(h, "%s/%d/%d;", c.key, c.count, c.firstExec)
		}
		h.Write([]byte{'|'})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// digestOf hashes a finished fuzz.Campaign.
func digestOf(c *fuzz.Campaign) [32]byte {
	var queue [][]byte
	for _, e := range c.Queue() {
		queue = append(queue, e.Input)
	}
	rows := func(cs []*fuzz.Crash) []crashRec {
		var out []crashRec
		for _, cr := range cs {
			out = append(out, crashRec{key: cr.Key, count: cr.Count, firstExec: cr.FirstExec})
		}
		return out
	}
	return campaignDigest(c.BitmapSnapshot(), queue, rows(c.Crashes()), rows(c.Hangs()))
}

// tracedLoop re-runs fuzz.Campaign's Step loop on the ClosureX mechanism
// from the modules' public calls, with a span around each call. Given the
// same target, seed and budget it must end with the same digest as the
// untraced campaign; the benchmark checks that, so the spans describe the
// same work.
type tracedLoop struct {
	tr     *Tracer
	run    int32
	parent int32 // span the loop's calls nest under

	target *targets.Target
	mod    *ir.Module
	vopts  vm.Options
	cov    []byte
	h      *harness.Harness
	base   int // basePages of the module at this rand seed

	rng    *fuzz.RNG
	mut    *fuzz.Mutator
	bitmap *fuzz.Bitmap
	queue  [][]byte
	tables [2]map[string]*crashRec // crashes, hangs
	cursor int
	burst  int
	cur    []byte
	execs  int64

	// Counters the layer metrics are computed from.
	instrs, cells, gains int64
	spawns, spawnNs      int64
	pagesSum             int64
	retired              harness.Stats // stats of images replaced by respawns
	execNs               []int64       // per-exec Mechanism.Execute time
	chk                  *tally
	// countCells counts each execution's nonzero trace cells, under its
	// own span. The scan costs about as much as the merge, so only the
	// compiled-backend copy, which sees the same coverage, pays for it.
	countCells bool
}

// setupResult is what the traced set-up measured.
type setupResult struct {
	compile, instrument, build, bootstrap time.Duration
	irInstrs                              int
}

// newTracedLoop builds target t with a span around each set-up call and
// runs the seed bootstrap.
func newTracedLoop(tr *Tracer, run int32, t *targets.Target, seed uint64, backend string, execHint int64, chk *tally) (*tracedLoop, setupResult, error) {
	var sr setupResult
	// span times f under a set-up span.
	span := func(l Layer, f func() error) (time.Duration, error) {
		id := tr.Begin(l, run, -1)
		err := f()
		tr.End(id)
		return time.Duration(tr.Spans[id].End - tr.Spans[id].Start), err
	}
	var raw, mod *ir.Module
	var err error
	if sr.compile, err = span(LCompile, func() (err error) {
		raw, err = core.Compile(t.Short+".c", t.Source)
		return err
	}); err != nil {
		return nil, sr, fmt.Errorf("compile %s: %w", t.Name, err)
	}
	if sr.instrument, err = span(LInstrument, func() (err error) {
		mod, err = core.InstrumentWith(raw, core.BuildConfig{Variant: core.ClosureX})
		return err
	}); err != nil {
		return nil, sr, fmt.Errorf("instrument %s: %w", t.Name, err)
	}
	sr.irInstrs = countInstrs(mod)
	cov := make([]byte, fuzz.MapSize)
	cfg := execmgr.Config{
		Module: mod, CovMap: cov, ImagePages: t.ImagePages,
		DeterministicRand: true, RandSeed: seed, Backend: backend,
	}
	var mech execmgr.Mechanism
	if sr.build, err = span(LBuild, func() (err error) {
		mech, err = execmgr.New("closurex", cfg)
		return err
	}); err != nil {
		return nil, sr, fmt.Errorf("build %s: %w", t.Name, err)
	}
	base, err := basePages(mod, seed)
	if err != nil {
		mech.Close()
		return nil, sr, err
	}
	maxLen := t.MaxInputLen
	if maxLen <= 0 {
		maxLen = defaultMaxSize
	}
	rng := fuzz.NewRNG(seed)
	mut := fuzz.NewMutator(rng, maxLen)
	mut.SetDict(targetDict(t))
	l := &tracedLoop{
		tr: tr, run: run, parent: -1, target: t, mod: mod, cov: cov, base: base,
		vopts: vm.Options{
			CovMap: cov, ImagePages: t.ImagePages,
			DeterministicRand: true, RandSeed: seed, Backend: backend,
		},
		// The loop adopts the mechanism's image; it releases it on close.
		h:          mech.(*execmgr.ClosureX).Harness(),
		rng:        rng,
		mut:        mut,
		bitmap:     fuzz.NewBitmap(),
		tables:     [2]map[string]*crashRec{{}, {}},
		chk:        chk,
		execNs:     make([]int64, 0, execHint),
		countCells: backend == core.CompiledBackend,
	}
	l.spawns, l.spawnNs = 1, int64(sr.build)
	l.notePages()
	// The bootstrap mirrors the first fuzz.Campaign.Step.
	l.parent = tr.Begin(LBootstrap, run, -1)
	for _, s := range t.Seeds() {
		l.runOne(s, 3)
	}
	if len(l.queue) == 0 {
		l.queue = append(l.queue, []byte{0})
	}
	tr.End(l.parent)
	sr.bootstrap = time.Duration(tr.Spans[l.parent].End - tr.Spans[l.parent].Start)
	return l, sr, nil
}

// targetDict is the dictionary core.NewInstance hands the mutator.
func targetDict(t *targets.Target) [][]byte {
	var dict [][]byte
	for _, tok := range t.Dict {
		dict = append(dict, []byte(tok))
	}
	return dict
}

// notePages applies the modeled OS cost guard to the current image.
func (l *tracedLoop) notePages() {
	pages := l.h.VM().Mem.Pages()
	l.pagesSum += int64(pages - l.base)
	checkPages(l.chk, l.target, pages, l.base)
}

// resetCounters starts the measured part: the per-exec layer counters
// cover only the executions after the bootstrap; the spawn counters cover
// the whole campaign.
func (l *tracedLoop) resetCounters() (execs0 int64) {
	l.instrs, l.cells, l.gains = 0, 0, 0
	l.execNs = l.execNs[:0]
	l.retired = harness.Stats{}
	s := l.h.Stats()
	l.retired.GlobalBytes = -s.GlobalBytes
	l.retired.ChunksFreed = -s.ChunksFreed
	l.retired.FDsClosed = -s.FDsClosed
	return l.execs
}

// runExecs drives the loop until n executions in total, under a
// fuzz.campaign span.
func (l *tracedLoop) runExecs(n int64) {
	l.parent = l.tr.Begin(LCampaign, l.run, -1)
	for l.execs < n {
		l.step()
	}
	l.tr.End(l.parent)
}

// step mirrors fuzz.Campaign.Step after the bootstrap.
func (l *tracedLoop) step() {
	if l.burst == 0 {
		l.cur = l.queue[l.cursor%len(l.queue)]
		l.cursor++
		l.burst = havocPerSeed
	}
	l.burst--
	var input []byte
	if len(l.queue) > 1 && l.rng.Intn(256) < spliceProb {
		other := l.queue[l.rng.Intn(len(l.queue))]
		id := l.tr.Begin(LMutate, l.run, l.parent)
		input = l.mut.Splice(l.cur, other)
		l.tr.End(id)
	} else {
		id := l.tr.Begin(LMutate, l.run, l.parent)
		input = l.mut.Havoc(l.cur)
		l.tr.End(id)
	}
	l.runOne(input, 0)
}

// runOne mirrors fuzz.Campaign.runOne.
func (l *tracedLoop) runOne(input []byte, gainOverride int) {
	res := l.execute(input)
	l.execs++
	l.instrs += res.Instrs
	if l.countCells {
		id := l.tr.Begin(LCount, l.run, l.parent)
		l.cells += int64(countNonzero(l.cov))
		l.tr.End(id)
	}
	id := l.tr.Begin(LMerge, l.run, l.parent)
	gain := l.bitmap.Update(l.cov)
	l.tr.End(id)
	if gain > 0 {
		l.gains++
	}
	if f := res.Fault; f != nil {
		table, key := l.tables[0], f.Key()
		if f.Kind == vm.FaultTimeout {
			table, key = l.tables[1], fuzz.HangKey(f)
		}
		if cr, ok := table[key]; ok {
			cr.count++
		} else {
			table[key] = &crashRec{key: key, count: 1, firstExec: l.execs}
		}
		return
	}
	if gainOverride > 0 {
		gain = gainOverride
	}
	if gain > 0 {
		l.queue = append(l.queue, append([]byte(nil), input...))
	}
}

// execute mirrors execmgr.ClosureX.Execute: run, restore, and respawn the
// image after a crash.
func (l *tracedLoop) execute(input []byte) vm.Result {
	ex := l.tr.Begin(LExecute, l.run, l.parent)
	id := l.tr.Begin(LCall, l.run, ex)
	v := l.h.VM()
	v.SetInput(input)
	res := v.Call(passes.TargetMain)
	l.tr.End(id)
	id = l.tr.Begin(LRestore, l.run, ex)
	err := l.h.Restore()
	l.tr.End(id)
	l.chk.check(err == nil, "%s: traced restore: %v", l.target.Name, err)
	if res.Crashed() {
		id = l.tr.Begin(LRespawn, l.run, ex)
		err := l.respawn()
		l.tr.End(id)
		l.spawnNs += l.tr.Spans[id].End - l.tr.Spans[id].Start
		l.chk.check(err == nil, "%s: respawn: %v", l.target.Name, err)
		if err == nil {
			l.notePages()
		}
	}
	l.tr.End(ex)
	l.execNs = append(l.execNs, l.tr.Spans[ex].End-l.tr.Spans[ex].Start)
	return res
}

// respawn mirrors the ClosureX mechanism's crash respawn.
func (l *tracedLoop) respawn() error {
	v, err := vm.New(l.mod, l.vopts)
	if err != nil {
		return err
	}
	h, err := harness.New(v, harness.FullRestore())
	if err != nil {
		v.Release()
		return err
	}
	s := l.h.Stats()
	l.retired.GlobalBytes += s.GlobalBytes
	l.retired.ChunksFreed += s.ChunksFreed
	l.retired.FDsClosed += s.FDsClosed
	l.h.VM().Release()
	l.h = h
	l.spawns++
	return nil
}

// restoreStats is the harness work done since resetCounters.
func (l *tracedLoop) restoreStats() (bytes, chunks, fds int64) {
	s := l.h.Stats()
	return l.retired.GlobalBytes + s.GlobalBytes, l.retired.ChunksFreed + s.ChunksFreed, l.retired.FDsClosed + s.FDsClosed
}

func (l *tracedLoop) digest() [32]byte {
	rows := func(m map[string]*crashRec) []crashRec {
		var out []crashRec
		for _, c := range m {
			out = append(out, *c)
		}
		return out
	}
	return campaignDigest(l.bitmap.Snapshot(), l.queue, rows(l.tables[0]), rows(l.tables[1]))
}

func (l *tracedLoop) close() { l.h.VM().Release() }

// timedExec times every Mechanism.Execute of one fleet shard.
type timedExec struct {
	inner execmgr.Mechanism
	tr    *Tracer
	run   int32
	execs int64
	busy  int64
}

func (e *timedExec) Execute(input []byte) vm.Result {
	id := e.tr.Begin(LExecute, e.run, -1)
	res := e.inner.Execute(input)
	e.tr.End(id)
	e.busy += e.tr.Spans[id].End - e.tr.Spans[id].Start
	e.execs++
	return res
}

// countNonzero counts the nonzero bytes of a coverage map, skipping zero
// words as the merge does.
func countNonzero(m []byte) int {
	n := 0
	for i := 0; i+8 <= len(m); i += 8 {
		if w := binary.LittleEndian.Uint64(m[i:]); w != 0 {
			// Fold each byte's bits into its low bit, then count the bytes.
			w |= w >> 4
			w |= w >> 2
			w |= w >> 1
			n += bits.OnesCount64(w & 0x0101010101010101)
		}
	}
	return n
}

func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}
