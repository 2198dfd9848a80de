package fuzz

// Shard supervision for ParallelCampaign: the campaign's one recovery
// ladder (DESIGN.md §11). A fault ends a shard's loop segment: a death (a
// panic in the exec stack, including the chaos ShardKill/ShardRestore
// probes), an image fault (the executor's restore error after a step, or a
// failed watchdog at a sync boundary) or a sentinel divergence. Each fault
// extends the shard's streak s; with M = MaxRestarts:
//
//	s <= M    a death restarts the loop with exponential backoff (queue,
//	          RNG and bitmap survive); an image fault or divergence
//	          rebuilds at once, so a polluted image never runs the next
//	          input, and a restore failure also quarantines its input
//	s == M+1  rebuild (ShardConfig.Rebuild: fresh VM + harness)
//	s == M+2  fall back for good (ShardConfig.Fallback; later rebuilds
//	          rebuild the fallback)
//	beyond    quarantine the shard: its coverage is merged, its pending
//	          corpus redistributed, and the healthy shards carry on
//
// A missing or failing rung escalates to the next. A sync boundary with
// progress closes the streak, so intermittent faults never retire a shard
// that still makes progress. With no faults the supervisor is inert:
// fault-free campaigns behave exactly as they did without supervision (the
// J=1 bit-identity proof still holds).

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"closurex/internal/faultinject"
)

// SupervisorConfig tunes the per-shard supervision ladder.
type SupervisorConfig struct {
	// MaxRestarts is M in the ladder: how many consecutive faults a shard
	// absorbs with restarts (deaths) or rebuilds (image faults, divergences)
	// before the supervisor escalates to a forced rebuild, then the
	// fallback, then quarantine (default 3).
	MaxRestarts int
	// Backoff is the cooldown before the first restart; it doubles per
	// consecutive fault (default 2ms — shards are in-process goroutines,
	// not OS processes, so the base is small).
	Backoff time.Duration
	// HangAfter is the no-progress threshold for the hang escalation
	// check: a monitor goroutine marks a shard stalled when its exec
	// counter has not moved for this long (default 10s; < 0 disables).
	// Escalation is observational — a wedged goroutine cannot be
	// preempted in-process — but the mark surfaces through Health and the
	// event log so operators and the stats emitter see it.
	HangAfter time.Duration
	// InboxCap bounds each shard's import inbox; when a shard stalls and
	// stops draining, the manager drops its oldest pending imports instead
	// of growing without bound (default 4096; < 0 unbounded). Dropped
	// imports are mutation fodder only — their coverage already lives in
	// the global bitmap — so dropping is always sound.
	InboxCap int
	// PublishTimeout bounds the blocking corpus flush at a shard's final
	// sync boundary (quarantine or campaign end); a manager wedged longer
	// than this loses the flush rather than deadlocking the fleet
	// (default 2s).
	PublishTimeout time.Duration
	// Injector arms chaos injection in the parallel layer: shard kills,
	// restore corruption, corpus-channel delay/drop. Nil injects nothing
	// and keeps the per-step probe to a single nil check.
	Injector *faultinject.Injector
}

func (s *SupervisorConfig) setDefaults() {
	if s.MaxRestarts <= 0 {
		s.MaxRestarts = 3
	}
	if s.Backoff <= 0 {
		s.Backoff = 2 * time.Millisecond
	}
	if s.HangAfter == 0 {
		s.HangAfter = 10 * time.Second
	}
	if s.InboxCap == 0 {
		s.InboxCap = 4096
	}
	if s.PublishTimeout <= 0 {
		s.PublishTimeout = 2 * time.Second
	}
}

// Fault kinds: three deaths, then two image faults and the divergence.
const (
	faultKill       = "kill"            // chaos ShardKill probe
	faultCorrupt    = "restore-corrupt" // chaos ShardRestore probe
	faultPanic      = "panic"           // any other panic in the exec stack
	faultRestore    = "restore-failure" // executor restore error after a step
	faultWatchdog   = "watchdog"        // failed Verify at a sync boundary
	faultDivergence = "divergence"      // sentinel replay disagreed
)

// shardFault is the panic payload that ends a shard segment with a typed
// verdict. The image and divergence checks throw it like the chaos probes,
// so supervise handles every fault kind at one recover site.
type shardFault struct{ kind, detail string }

// death reports whether f killed the segment rather than the image.
func (f shardFault) death() bool {
	return f.kind == faultKill || f.kind == faultCorrupt || f.kind == faultPanic
}

// imageChecker is implemented by executors with a persistent image
// (execmgr.ClosureX); the shard asserts it once per executor.
type imageChecker interface{ ImageFault(verify bool) error }

// shardHealth is the per-shard health ledger. All fields are atomics so
// Health() can snapshot them from any goroutine while the fleet runs.
type shardHealth struct {
	restarts        atomic.Int64
	rebuilds        atomic.Int64
	restoreFailures atomic.Int64
	consecFaults    atomic.Int64
	hangEscalations atomic.Int64
	inboxDropped    atomic.Int64
	pendingPub      atomic.Int64
	quarantined     atomic.Bool
	fellBack        atomic.Bool
	stalled         atomic.Bool
	lastProgress    atomic.Int64  // unix nanos of the last observed progress
	rateBits        atomic.Uint64 // EWMA execs/sec, as math.Float64bits

	mu        sync.Mutex
	lastFault string
}

func (h *shardHealth) touchProgress() { h.lastProgress.Store(time.Now().UnixNano()) }

func (h *shardHealth) setLastFault(s string) {
	h.mu.Lock()
	h.lastFault = s
	h.mu.Unlock()
}

func (h *shardHealth) getLastFault() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastFault
}

// ShardHealth is one shard's health snapshot — the state a fleet
// supervisor (CLI stats emitter, future closurex-serve daemon) watches.
type ShardHealth struct {
	Shard int
	// Execs/Crashes/Hangs are the counters sampled at the shard's last
	// sync boundary.
	Execs   int64
	Crashes int64
	Hangs   int64
	// ExecRate is an exponentially weighted execs/sec over sync windows.
	ExecRate float64
	// Restarts counts deaths (each restarts the segment unless the shard
	// is retired); Rebuilds counts rebuild rungs taken; RestoreFailures
	// counts image faults (restore errors, failed watchdog passes) plus
	// the chaos ShardRestore corruptions.
	Restarts        int64
	Rebuilds        int64
	RestoreFailures int64
	// ConsecutiveFaults is the current fault streak (0 while healthy).
	ConsecutiveFaults int64
	// HangEscalations counts monitor no-progress escalations.
	HangEscalations int64
	// InboxDropped counts imports shed by the bounded inbox;
	// PendingPublish is the backpressure depth (entries waiting for the
	// manager to accept them).
	InboxDropped   int64
	PendingPublish int64
	// Quarantined means the supervisor permanently retired the shard;
	// Stalled means the hang monitor currently sees no progress.
	Quarantined bool
	Stalled     bool
	// LastProgress is when the shard last demonstrably advanced.
	LastProgress time.Time
	// LastFault describes the most recent fault ("" while clean).
	LastFault string
	// MechDegraded means the shard has fallen back to its
	// ShardConfig.Fallback mechanism (the forkserver, for closurex shards).
	MechDegraded bool
}

// ShardEvent is one entry in the fleet's supervision log.
type ShardEvent struct {
	Shard  int
	Exec   int64 // the shard's exec count when the event fired
	Kind   string
	Detail string
	At     time.Duration // campaign time
}

// Health snapshots every shard's supervision state. Safe to call from any
// goroutine while the fleet runs; counter fields lag live progress by at
// most one sync window.
func (p *ParallelCampaign) Health() []ShardHealth {
	out := make([]ShardHealth, len(p.shards))
	for j := range p.shards {
		h := &p.health[j]
		out[j] = ShardHealth{
			Shard:             j,
			Execs:             atomic.LoadInt64(&p.counters[j].execs),
			Crashes:           atomic.LoadInt64(&p.counters[j].crashes),
			Hangs:             atomic.LoadInt64(&p.counters[j].hangs),
			ExecRate:          math.Float64frombits(h.rateBits.Load()),
			Restarts:          h.restarts.Load(),
			Rebuilds:          h.rebuilds.Load(),
			RestoreFailures:   h.restoreFailures.Load(),
			ConsecutiveFaults: h.consecFaults.Load(),
			HangEscalations:   h.hangEscalations.Load(),
			InboxDropped:      h.inboxDropped.Load(),
			PendingPublish:    h.pendingPub.Load(),
			Quarantined:       h.quarantined.Load(),
			Stalled:           h.stalled.Load(),
			LastFault:         h.getLastFault(),
			MechDegraded:      h.fellBack.Load(),
		}
		if ns := h.lastProgress.Load(); ns > 0 {
			out[j].LastProgress = time.Unix(0, ns)
		}
	}
	return out
}

// HealthyShards counts shards not yet quarantined. A caller driving the
// campaign in slices (the CLI status loop) should stop once this reaches
// zero — RunFor/RunExecs return immediately with no shard left to fuzz.
func (p *ParallelCampaign) HealthyShards() int {
	n := 0
	for j := range p.health {
		if !p.health[j].quarantined.Load() {
			n++
		}
	}
	return n
}

// Events returns a copy of the supervision log (faults, restarts, rebuilds,
// quarantines, hang escalations) in arrival order.
func (p *ParallelCampaign) Events() []ShardEvent {
	p.eventMu.Lock()
	defer p.eventMu.Unlock()
	return append([]ShardEvent(nil), p.events...)
}

func (p *ParallelCampaign) eventf(shard int, exec int64, kind, format string, args ...interface{}) {
	ev := ShardEvent{Shard: shard, Exec: exec, Kind: kind, Detail: fmt.Sprintf(format, args...), At: p.Elapsed()}
	p.eventMu.Lock()
	p.events = append(p.events, ev)
	p.eventMu.Unlock()
}

// step advances sh's campaign by one execution, probing the chaos sites
// first, then checks the executor's image and the sentinel's verdict. The
// production fast path is one nil check before the step and two after.
func (p *ParallelCampaign) step(sh *shard) {
	if inj := p.sup.Injector; inj != nil {
		if inj.Should(faultinject.ShardKill) || inj.Should(faultinject.ForShard(faultinject.ShardKill, sh.id)) {
			panic(shardFault{kind: faultKill, detail: faultinject.Err(faultinject.ShardKill).Error()})
		}
		if inj.Should(faultinject.ShardRestore) || inj.Should(faultinject.ForShard(faultinject.ShardRestore, sh.id)) {
			panic(shardFault{kind: faultCorrupt, detail: faultinject.Err(faultinject.ShardRestore).Error()})
		}
	}
	c := sh.c
	c.Step()
	if sh.image != nil {
		if err := sh.image.ImageFault(false); err != nil {
			panic(shardFault{kind: faultRestore, detail: err.Error()})
		}
	}
	if n := len(c.divergences); n != sh.divergences {
		sh.divergences = n
		panic(shardFault{kind: faultDivergence, detail: c.divergences[n-1].Reason})
	}
}

// supervise is one shard's top-level goroutine: run the exec loop, and on
// every fault climb the ladder (see the file comment). A quarantined shard
// never restarts, including across subsequent RunFor/RunExecs calls.
func (p *ParallelCampaign) supervise(sh *shard, pub chan<- corpusMsg, fn func(*shard, chan<- corpusMsg)) {
	h := &p.health[sh.id]
	if h.quarantined.Load() {
		return
	}
	h.touchProgress()
	m := int64(p.sup.MaxRestarts)
	for {
		f, completed := p.runSegment(sh, pub, fn)
		if completed {
			// Normal completion (deadline, exec target, or stop request):
			// flush everything at a final boundary.
			p.syncShard(sh, pub)
			p.flushPublishes(sh, pub, true)
			return
		}
		s := h.consecFaults.Add(1)
		p.eventf(sh.id, sh.c.execs, f.kind, "%s (streak %d)", f.detail, s)
		if f.kind == faultRestore {
			sh.c.quarantineLast()
		}
		if f.death() {
			h.restarts.Add(1)
		}
		switch {
		case s <= m && f.death():
			p.eventf(sh.id, sh.c.execs, "restart", "backoff %v", p.backoffFor(s))
			p.backoffWait(p.backoffFor(s))
		case s <= m+1 && p.replaceMech(sh, sh.rebuild, "rebuild", s):
			h.rebuilds.Add(1)
			if f.death() {
				p.backoffWait(p.backoffFor(s))
			}
		case s <= m+2 && p.replaceMech(sh, sh.fallback, "fallback", s):
			sh.rebuild, sh.fallback = sh.fallback, nil
			h.fellBack.Store(true)
		default:
			p.quarantineShard(sh, pub)
			return
		}
	}
}

// runSegment runs one supervised stretch of the shard loop, converting any
// panic in the shard's exec stack into a recorded fault.
func (p *ParallelCampaign) runSegment(sh *shard, pub chan<- corpusMsg, fn func(*shard, chan<- corpusMsg)) (f shardFault, completed bool) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if f, ok = r.(shardFault); !ok {
				f = shardFault{kind: faultPanic, detail: fmt.Sprint(r)}
			}
			h := &p.health[sh.id]
			if f.kind == faultCorrupt || f.kind == faultRestore || f.kind == faultWatchdog {
				h.restoreFailures.Add(1)
			}
			h.setLastFault(f.kind + ": " + f.detail)
		}
	}()
	fn(sh, pub)
	return shardFault{}, true
}

// backoffFor returns the exponential cooldown for the nth consecutive fault.
func (p *ParallelCampaign) backoffFor(faults int64) time.Duration {
	shift := faults - 1
	if shift > 16 {
		shift = 16
	}
	return p.sup.Backoff << shift
}

// backoffWait sleeps d, returning early if the campaign's stop channel
// closes (a stopping fleet should not sit out a backoff; the next segment
// will observe the stop request and finish cleanly).
func (p *ParallelCampaign) backoffWait(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.cfg.Stop: // nil channel: never fires, timer wins
	}
}

// replaceMech swaps in the mechanism build constructs (the rebuild or
// fallback rung), keeping the shard's campaign state: queue, RNG and bitmap
// are all derived from executed inputs, so only the mechanism is suspect.
// False when build is nil or fails; the caller escalates.
func (p *ParallelCampaign) replaceMech(sh *shard, build func() (Executor, []byte, error), kind string, streak int64) bool {
	if build == nil {
		return false
	}
	ex, cov, err := build()
	if err != nil {
		p.eventf(sh.id, sh.c.execs, kind, "replacement failed: %v", err)
		return false
	}
	sh.c.cfg.Executor, sh.c.cfg.CovMap = ex, cov
	sh.image, _ = ex.(imageChecker)
	p.eventf(sh.id, sh.c.execs, kind, "after %d consecutive faults", streak)
	return true
}

// quarantineShard retires sh permanently: its coverage is merged and its
// pending corpus redistributed (published through the manager so the
// healthy shards adopt it), then the shard leaves the fleet. The campaign
// continues on J−k healthy shards.
func (p *ParallelCampaign) quarantineShard(sh *shard, pub chan<- corpusMsg) {
	h := &p.health[sh.id]
	p.syncShard(sh, pub)
	p.flushPublishes(sh, pub, true)
	h.quarantined.Store(true)
	p.eventf(sh.id, sh.c.execs, "quarantine", "retired after %d consecutive faults; last: %s",
		h.consecFaults.Load(), h.getLastFault())
}

// monitor is the hang escalation check: a periodic sweep comparing each
// active shard's sampled exec counter against its last observed value. A
// shard that has not moved for HangAfter is marked stalled (once per stall
// episode); progress clears the mark.
func (p *ParallelCampaign) monitor(stop <-chan struct{}) {
	period := p.sup.HangAfter / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	lastExecs := make([]int64, len(p.shards))
	lastMove := make([]time.Time, len(p.shards))
	now := time.Now()
	for j := range p.shards {
		lastExecs[j] = atomic.LoadInt64(&p.counters[j].execs)
		lastMove[j] = now
	}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now = time.Now()
		for j := range p.shards {
			h := &p.health[j]
			if h.quarantined.Load() {
				continue
			}
			execs := atomic.LoadInt64(&p.counters[j].execs)
			if execs != lastExecs[j] {
				lastExecs[j] = execs
				lastMove[j] = now
				if h.stalled.CompareAndSwap(true, false) {
					p.eventf(j, execs, "hang-recovered", "progress resumed")
				}
				continue
			}
			if now.Sub(lastMove[j]) >= p.sup.HangAfter && h.stalled.CompareAndSwap(false, true) {
				h.hangEscalations.Add(1)
				p.eventf(j, execs, "hang-escalation", "no progress for %v", now.Sub(lastMove[j]).Round(time.Millisecond))
			}
		}
	}
}
