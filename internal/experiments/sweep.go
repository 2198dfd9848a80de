package experiments

// Sweep runner: every throughput and identity sweep closurex-bench records
// is a table of points — a target, a mode label and a core.InstanceOptions
// delta — measured by one function the way the campaign benchmark measures
// a campaign: core.NewInstance with DeterministicRand, one bootstrap Step
// outside the timer, a timed Driver().RunExecs, best and median of N
// trials. Each sweep declares the gates its rows must pass; the bench CLI
// writes the report and then exits nonzero if any gate failed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"closurex/internal/analysis"
	"closurex/internal/analysis/synth"
	"closurex/internal/core"
	"closurex/internal/faultinject"
	"closurex/internal/fuzz"
	"closurex/internal/targets"
	"closurex/internal/vm"
)

// Point is one configuration of a sweep.
type Point struct {
	Target    string
	Mechanism string // "" means closurex
	Mode      string
	// Opts is the delta over the measured defaults; TrialSeed,
	// DeterministicRand and Injector are set per trial.
	Opts core.InstanceOptions
	// Arm, when set, arms a fresh fault injector for every trial.
	Arm func(*faultinject.Injector)
}

// Row is one measured point. Throughput is over the timed window only
// (bootstrap excluded); every other counter reports the worst trial, so a
// gate over the rows covers every trial.
type Row struct {
	Sweep        string  `json:"sweep"`
	Target       string  `json:"target"`
	Mechanism    string  `json:"mechanism"`
	Backend      string  `json:"backend"`
	Jobs         int     `json:"jobs"`
	Mode         string  `json:"mode"`
	Trials       int     `json:"trials"`
	Execs        int64   `json:"execs"`
	BestPerSec   float64 `json:"best_execs_per_sec"`
	MedianPerSec float64 `json:"median_execs_per_sec"`
	Edges        int     `json:"edges"`
	Corpus       int     `json:"corpus"`
	Restarts     int64   `json:"restarts"`
	Rebuilds     int64   `json:"rebuilds"`
	Quarantined  int     `json:"quarantined_shards"`

	virgin []byte   // the last trial's cumulative coverage map
	digest [32]byte // the first trial's campaignDigest
	stable bool     // every trial reproduced digest
	leaked int      // most goroutines any trial left behind after Close
}

// Gate is one tripwire a sweep's report must pass.
type Gate struct {
	Name  string
	Check func(rep *Report) (pass bool, detail string)
}

// Verdict is a gate's recorded outcome.
type Verdict struct {
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// Sweep is a named table of points plus the gates its rows must pass.
type Sweep struct {
	Name  string
	Execs int64 // default timed executions per point
	// Plan expands the sweep over the selected targets (empty: the sweep's
	// own default set) into its points and gates.
	Plan func(tgts []string) ([]Point, []Gate, error)
}

// SweepOptions scales one run of a sweep.
type SweepOptions struct {
	Targets []string
	Execs   int64 // 0: the sweep's default
	Trials  int   // 0: 1
	Seed    uint64
}

// Report is the JSON envelope every BENCH_<sweep>.json artifact carries.
type Report struct {
	Sweep      string             `json:"sweep"`
	Execs      int64              `json:"execs_per_point"`
	Trials     int                `json:"trials"`
	Seed       uint64             `json:"seed"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Rows       []Row              `json:"rows"`
	Gates      map[string]Verdict `json:"gates,omitempty"`
	Pass       bool               `json:"pass"`
}

// RunSweep measures every point of sw and evaluates its gates.
func RunSweep(sw Sweep, opt SweepOptions) (*Report, error) {
	if opt.Execs <= 0 {
		opt.Execs = sw.Execs
	}
	if opt.Trials <= 0 {
		opt.Trials = 1
	}
	points, gates, err := sw.Plan(opt.Targets)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Sweep: sw.Name, Execs: opt.Execs, Trials: opt.Trials, Seed: opt.Seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Gates: map[string]Verdict{}, Pass: true,
	}
	for _, p := range points {
		row, err := measure(sw.Name, p, opt.Execs, opt.Trials, opt.Seed)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, g := range gates {
		pass, detail := g.Check(rep)
		rep.Gates[g.Name] = Verdict{pass, detail}
		rep.Pass = rep.Pass && pass
	}
	return rep, nil
}

// measure runs one point trials times from the same seed.
func measure(sweep string, p Point, execs int64, trials int, seed uint64) (Row, error) {
	t := targets.Get(p.Target)
	if t == nil {
		return Row{}, fmt.Errorf("experiments: unknown target %q", p.Target)
	}
	row := Row{
		Sweep: sweep, Target: p.Target, Mechanism: p.Mechanism, Backend: p.Opts.Backend,
		Jobs: max(p.Opts.Jobs, 1), Mode: p.Mode, Trials: trials, stable: true,
	}
	if row.Mechanism == "" {
		row.Mechanism = MechClosureX
	}
	if row.Backend == "" {
		row.Backend = vm.InterpBackend
	}
	var rates []float64
	for trial := 0; trial < trials; trial++ {
		opts := p.Opts
		opts.TrialSeed, opts.DeterministicRand = seed, true
		if p.Arm != nil {
			opts.Injector = faultinject.New(seed)
			p.Arm(opts.Injector)
		}
		goroutines := runtime.NumGoroutine()
		in, err := core.NewInstance(t, row.Mechanism, opts)
		if err != nil {
			return row, fmt.Errorf("experiments: %s %s/%s: %w", sweep, p.Target, p.Mode, err)
		}
		// Bootstrap outside the timer: every shard runs its seeds once.
		shards := shardsOf(in)
		for _, c := range shards {
			c.Step()
		}
		drv := in.Driver()
		before := shardExecs(shards)
		start := time.Now()
		drv.RunExecs(before + execs)
		elapsed := time.Since(start)
		n := shardExecs(shards) - before
		rates = append(rates, float64(n)/elapsed.Seconds())

		row.virgin = drv.BitmapSnapshot()
		sum := campaignDigest(drv, row.virgin)
		var restarts, rebuilds int64
		quarantined := 0
		for _, h := range drv.Health() {
			restarts += h.Restarts
			rebuilds += h.Rebuilds
			if h.Quarantined {
				quarantined++
			}
		}
		if trial == 0 {
			row.digest, row.Execs, row.Edges, row.Corpus = sum, n, drv.Edges(), drv.QueueLen()
		}
		row.stable = row.stable && sum == row.digest
		row.Execs = min(row.Execs, n)
		row.Edges = min(row.Edges, drv.Edges())
		row.Corpus = min(row.Corpus, drv.QueueLen())
		row.Restarts = max(row.Restarts, restarts)
		row.Rebuilds = max(row.Rebuilds, rebuilds)
		row.Quarantined = max(row.Quarantined, quarantined)
		in.Close()
		row.leaked = max(row.leaked, settle(goroutines))
	}
	sort.Float64s(rates)
	row.BestPerSec = rates[len(rates)-1]
	row.MedianPerSec = rates[len(rates)/2]
	if len(rates)%2 == 0 {
		row.MedianPerSec = (rates[len(rates)/2-1] + rates[len(rates)/2]) / 2
	}
	return row, nil
}

// campaignDigest hashes what a campaign produced: its virgin map, its
// queue in order, and its crash and hang tables (wall-clock times left out).
func campaignDigest(drv *fuzz.ParallelCampaign, virgin []byte) [32]byte {
	h := sha256.New()
	h.Write(virgin)
	for _, e := range drv.Queue() {
		fmt.Fprintf(h, "%d:%s", len(e.Input), e.Input)
	}
	for _, table := range [][]*fuzz.Crash{drv.Crashes(), drv.Hangs()} {
		sort.Slice(table, func(i, j int) bool { return table[i].Key < table[j].Key })
		for _, c := range table {
			fmt.Fprintf(h, "%s/%d/%d;", c.Key, c.Count, c.FirstExec)
		}
		h.Write([]byte{'|'})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// shardsOf returns every shard's campaign.
func shardsOf(in *core.Instance) []*fuzz.Campaign {
	out := make([]*fuzz.Campaign, in.Jobs())
	for j := range out {
		out[j] = in.Driver().Shard(j)
	}
	return out
}

// shardExecs sums the shards' own execution counters, which unlike the
// fleet's sampled aggregate include the bootstrap.
func shardExecs(shards []*fuzz.Campaign) int64 {
	var n int64
	for _, c := range shards {
		n += c.Execs()
	}
	return n
}

// settle waits for supervisor and manager goroutines to unwind and returns
// how many more are live than before (0 when none leaked).
func settle(before int) int {
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-before, 0)
}

// byTarget groups rows by target, keeping first-seen order.
func byTarget(rows []Row) (order []string, groups map[string][]Row) {
	groups = map[string][]Row{}
	for _, r := range rows {
		if _, ok := groups[r.Target]; !ok {
			order = append(order, r.Target)
		}
		groups[r.Target] = append(groups[r.Target], r)
	}
	return order, groups
}

// perTarget builds a gate that passes when ok holds for every target's
// group of rows, naming the targets where it does not.
func perTarget(name, what string, ok func(rep *Report, rows []Row) bool) Gate {
	return Gate{Name: name, Check: func(rep *Report) (bool, string) {
		order, groups := byTarget(rep.Rows)
		var bad []string
		for _, t := range order {
			if !ok(rep, groups[t]) {
				bad = append(bad, t)
			}
		}
		if len(bad) > 0 {
			return false, fmt.Sprintf("%d/%d targets not %s: %s", len(bad), len(order), what, strings.Join(bad, ", "))
		}
		return true, fmt.Sprintf("%d/%d targets %s", len(order), len(order), what)
	}}
}

// IdentityGate passes when all rows of each target end with the same
// campaign: virgin map, queue and crash and hang tables, by digest.
func IdentityGate(name string) Gate {
	return perTarget(name, "identical", func(_ *Report, rows []Row) bool { return sameDigest(rows) })
}

func sameDigest(rows []Row) bool {
	for _, r := range rows {
		if r.digest != rows[0].digest {
			return false
		}
	}
	return true
}

// Sweeps is the table of sweeps closurex-bench -sweep runs.
func Sweeps() []Sweep {
	return []Sweep{
		{Name: "parallel", Execs: 20000, Plan: planParallel},
		{Name: "compile", Execs: 20000, Plan: planCompile},
		{Name: "sanitizer", Execs: 20000, Plan: planSanitizer},
		{Name: "elision", Execs: 20000, Plan: planElision},
		{Name: "dict", Execs: 20000, Plan: planDict},
		{Name: "synth", Execs: 10000, Plan: planSynth},
		{Name: "chaos", Execs: 20000, Plan: planChaos},
	}
}

// FindSweep looks a sweep up by name in table.
func FindSweep(table []Sweep, name string) (Sweep, error) {
	var names []string
	for _, sw := range table {
		if sw.Name == name {
			return sw, nil
		}
		names = append(names, sw.Name)
	}
	return Sweep{}, fmt.Errorf("experiments: unknown sweep %q (have %s)", name, strings.Join(names, ", "))
}

// orDefault returns tgts, or the names of def when tgts is empty.
func orDefault(tgts []string, def ...*targets.Target) []string {
	if len(tgts) > 0 {
		return tgts
	}
	var out []string
	for _, t := range def {
		out = append(out, t.Name)
	}
	return out
}

// pairs gives every target one point per mode.
func pairs(tgts []string, modes []string, opts func(mode string) core.InstanceOptions) []Point {
	var pts []Point
	for _, t := range tgts {
		for _, m := range modes {
			pts = append(pts, Point{Target: t, Mode: m, Opts: opts(m)})
		}
	}
	return pts
}

// planParallel: shard counts 1, 2, 4 (and GOMAXPROCS above that) on both
// backends.
func planParallel(tgts []string) ([]Point, []Gate, error) {
	jobs := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		jobs = append(jobs, p)
	}
	var pts []Point
	for _, t := range orDefault(tgts, targets.Get("gpmf-parser")) {
		for _, b := range []string{vm.InterpBackend, core.CompiledBackend} {
			for _, j := range jobs {
				pts = append(pts, Point{Target: t, Mode: fmt.Sprintf("j%d", j), Opts: core.InstanceOptions{Backend: b, Jobs: j}})
			}
		}
	}
	return pts, nil, nil
}

// planCompile: interp vs compiled on every target. all_identical needs the
// whole campaigns and a trace-mode replay of the seeds to agree.
func planCompile(tgts []string) ([]Point, []Gate, error) {
	pts := pairs(orDefault(tgts, targets.All()...), []string{vm.InterpBackend, core.CompiledBackend},
		func(m string) core.InstanceOptions { return core.InstanceOptions{Backend: m} })
	gate := perTarget("all_identical", "identical", func(rep *Report, rows []Row) bool {
		ok, err := backendsIdentical(targets.Get(rows[0].Target), rep.Seed)
		return err == nil && ok && sameDigest(rows)
	})
	return pts, []Gate{gate}, nil
}

// backendsIdentical replays the seed corpus once per backend in trace mode
// and compares every observable the fuzzer keys on.
func backendsIdentical(t *targets.Target, seed uint64) (bool, error) {
	type obs struct {
		res vm.Result
		cov []byte
	}
	run := func(backend string) ([]obs, error) {
		inst, err := core.NewInstance(t, MechClosureX, core.InstanceOptions{
			TrialSeed:         seed,
			DeterministicRand: true,
			TraceEdges:        true,
			Backend:           backend,
		})
		if err != nil {
			return nil, err
		}
		defer inst.Close()
		var out []obs
		for _, in := range t.Seeds() {
			res := inst.Mech.Execute(in)
			out = append(out, obs{res, append([]byte(nil), inst.CovMap...)})
		}
		return out, nil
	}
	oi, err := run(vm.InterpBackend)
	if err != nil {
		return false, err
	}
	oc, err := run(core.CompiledBackend)
	if err != nil || len(oi) != len(oc) {
		return false, err
	}
	for k := range oi {
		a, b := oi[k], oc[k]
		if a.res.Ret != b.res.Ret || a.res.Exited != b.res.Exited ||
			a.res.Instrs != b.res.Instrs ||
			a.res.PathHash != b.res.PathHash || a.res.PathLen != b.res.PathLen {
			return false, nil
		}
		af, bf := a.res.Fault, b.res.Fault
		if (af == nil) != (bf == nil) || (af != nil && af.Key() != bf.Key()) {
			return false, nil
		}
		if !bytes.Equal(a.cov, b.cov) {
			return false, nil
		}
	}
	return true, nil
}

// planSanitizer: sanitize off, on and on with static check elision.
func planSanitizer(tgts []string) ([]Point, []Gate, error) {
	var pts []Point
	for _, t := range orDefault(tgts, targets.Get("gpmf-parser")) {
		for _, m := range []core.SanitizeMode{core.SanitizeOff, core.SanitizeNoElide, core.SanitizeElide} {
			pts = append(pts, Point{Target: t, Mode: m.String(), Opts: core.InstanceOptions{Sanitize: m}})
		}
	}
	return pts, nil, nil
}

// planElision: interprocedural restore elision off vs on; the campaigns
// must end with identical coverage maps.
func planElision(tgts []string) ([]Point, []Gate, error) {
	pts := pairs(orDefault(tgts, targets.All()...), []string{"off", "on"},
		func(m string) core.InstanceOptions { return core.InstanceOptions{Interproc: m == "on"} })
	return pts, []Gate{IdentityGate("edges_match")}, nil
}

// planDict: auto-dictionary off vs on; every off-trial must reproduce the
// same campaign, or the dictionary plumbing perturbed the baseline stream.
func planDict(tgts []string) ([]Point, []Gate, error) {
	gate := perTarget("deterministic_off", "deterministic", func(_ *Report, rows []Row) bool {
		for _, r := range rows {
			if r.Mode == "off" && !r.stable {
				return false
			}
		}
		return true
	})
	pts := pairs(orDefault(tgts, targets.All()...), []string{"off", "on"},
		func(m string) core.InstanceOptions { return core.InstanceOptions{AutoDict: m == "on"} })
	return pts, []Gate{gate}, nil
}

// synthSuffix names a synthesized harness's registry target.
const synthSuffix = "+synth"

// planSynth: each benchmark's manual harness vs its statically synthesized
// dispatch harness. Any CLX130 is a synthesizer bug; every synthesized
// harness must reach cells the manual campaign does not.
func planSynth(tgts []string) ([]Point, []Gate, error) {
	clx130 := 0
	var pts []Point
	for _, name := range orDefault(tgts, targets.Benchmarks()...) {
		base := targets.Get(name)
		if base == nil {
			return nil, nil, fmt.Errorf("experiments: unknown target %q", name)
		}
		pts = append(pts, Point{Target: name, Mode: "manual"})
		// A declined synthesis leaves only the manual row; closurex-lint
		// -synth reports why.
		nt, h, _ := synth.TargetFor(base, synth.Options{})
		if h != nil {
			clx130 += h.Report.Codes[analysis.IDSynthCertFail]
		}
		if nt == nil {
			continue
		}
		// Re-runs in one process reuse the registered target.
		if targets.Get(nt.Name) == nil {
			if err := core.RegisterTarget(nt); err != nil {
				return nil, nil, fmt.Errorf("experiments: %s: register: %w", name, err)
			}
		}
		pts = append(pts, Point{Target: nt.Name, Mode: "synth"})
	}
	gates := []Gate{
		{Name: "clx130", Check: func(*Report) (bool, string) {
			return clx130 == 0, fmt.Sprintf("%d certification failure(s)", clx130)
		}},
		{Name: "strict_superset", Check: func(rep *Report) (bool, string) {
			cells := SynthCells(rep)
			var bad []string
			fresh := 0
			for _, c := range cells {
				fresh += c.New
				if c.New == 0 {
					bad = append(bad, c.Target)
				}
			}
			detail := fmt.Sprintf("%d/%d synthesized targets strict supersets, %+d new cells",
				len(cells)-len(bad), len(cells), fresh)
			if len(bad) > 0 {
				detail += "; not: " + strings.Join(bad, ", ")
			}
			return len(bad) == 0, detail
		}},
	}
	return pts, gates, nil
}

// SynthCell is one target's manual vs synthesized coverage census.
type SynthCell struct {
	Target                     string
	Manual, Synth, Merged, New int // covered cells; New is |synth \ manual|
}

// SynthCells compares each synthesized row's coverage map with its
// manual row's, cell by cell.
func SynthCells(rep *Report) []SynthCell {
	manual := map[string]Row{}
	for _, r := range rep.Rows {
		manual[r.Target] = r
	}
	var out []SynthCell
	for _, r := range rep.Rows {
		m, ok := manual[strings.TrimSuffix(r.Target, synthSuffix)]
		if r.Mode != "synth" || !ok {
			continue
		}
		c := SynthCell{Target: m.Target, Manual: m.Edges, Synth: r.Edges}
		for i := range m.virgin {
			if m.virgin[i] != 0 || r.virgin[i] != 0 {
				c.Merged++
			}
			if r.virgin[i] != 0 && m.virgin[i] == 0 {
				c.New++
			}
		}
		out = append(out, c)
	}
	return out
}

// planChaos: a fault-free baseline and every fault class the shard
// supervisor must absorb, at four shards. A scenario passes when its
// campaign completes, reaches the baseline's coverage and leaks no
// goroutines.
func planChaos(tgts []string) ([]Point, []Gate, error) {
	scenarios := []struct {
		mode string
		arm  func(inj *faultinject.Injector)
	}{
		{"baseline", nil},
		{"shard-kill", func(inj *faultinject.Injector) {
			inj.FailAfter(faultinject.ForShard(faultinject.ShardKill, 1), 500, 2)
		}},
		{"shard-kill-forever", func(inj *faultinject.Injector) {
			inj.FailAfter(faultinject.ForShard(faultinject.ShardKill, 1), 500, -1)
		}},
		{"restore-corrupt", func(inj *faultinject.Injector) {
			inj.FailAfter(faultinject.ForShard(faultinject.ShardRestore, 2), 300, 3)
		}},
		{"corpus-delay", func(inj *faultinject.Injector) { inj.FailWithProb(faultinject.CorpusDelay, 0.5) }},
		{"corpus-drop", func(inj *faultinject.Injector) { inj.FailWithProb(faultinject.CorpusDrop, 0.5) }},
	}
	var pts []Point
	for _, t := range orDefault(tgts, targets.Get("gpmf-parser")) {
		for _, sc := range scenarios {
			pts = append(pts, Point{Target: t, Mode: sc.mode, Arm: sc.arm,
				// The scenarios fault shards 1 and 2; a short backoff keeps
				// the matrix fast.
				Opts: core.InstanceOptions{Jobs: 4, ShardBackoff: 100 * time.Microsecond}})
		}
	}
	gate := Gate{Name: "all_pass", Check: func(rep *Report) (bool, string) {
		order, groups := byTarget(rep.Rows)
		var bad []string
		for _, t := range order {
			base := groups[t][0]
			for _, r := range groups[t][1:] {
				if r.Edges < base.Edges {
					bad = append(bad, fmt.Sprintf("%s/%s: edges %d below baseline %d", t, r.Mode, r.Edges, base.Edges))
				}
				if r.leaked > 0 {
					bad = append(bad, fmt.Sprintf("%s/%s: leaked %d goroutines", t, r.Mode, r.leaked))
				}
			}
		}
		if len(bad) > 0 {
			return false, strings.Join(bad, "; ")
		}
		return true, fmt.Sprintf("%d scenario(s) complete at baseline coverage, no leaks", len(rep.Rows)-len(order))
	}}
	return pts, []Gate{gate}, nil
}

// FormatReport renders a report as an aligned text table plus its gates.
func FormatReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep %s: %d timed execs per point, best/median of %d trial(s), seed %#x, GOMAXPROCS=%d\n",
		rep.Sweep, rep.Execs, rep.Trials, rep.Seed, rep.GOMAXPROCS)
	fmt.Fprintf(&b, "  %-18s %-16s %-8s %4s %-18s %8s %10s %10s %6s %6s %4s %4s %4s\n",
		"target", "mechanism", "backend", "jobs", "mode", "execs", "best/s", "median/s",
		"edges", "corpus", "rst", "rbld", "quar")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "  %-18s %-16s %-8s %4d %-18s %8d %10.0f %10.0f %6d %6d %4d %4d %4d\n",
			r.Target, r.Mechanism, r.Backend, r.Jobs, r.Mode, r.Execs, r.BestPerSec, r.MedianPerSec,
			r.Edges, r.Corpus, r.Restarts, r.Rebuilds, r.Quarantined)
	}
	var names []string
	for name := range rep.Gates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.Gates[name]
		verdict := "ok"
		if !v.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  gate %s: %s (%s)\n", name, verdict, v.Detail)
	}
	return b.String()
}

// WriteJSON writes the report to path as indented JSON.
func WriteJSON(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
