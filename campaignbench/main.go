// Command campaignbench is the repository's end-to-end benchmark. It runs
// one workload of closurex fuzzing campaigns from MinC source, as a closed
// loop (the fuzzer mutates the next input only after the previous one has
// run), prints every metric by name with its unit, checks that the
// campaigns' outputs are correct, and prints a JSON result as its last
// line.
//
//	campaignbench --workload shallow --seed 1 --seconds 30 --trace 0
//
// A run is a fixed number of rounds, derived from --seconds; each round
// runs one campaign of a fixed number of executions per target, seeded
// from --seed and the round index, so the same arguments give the same
// work and only the timing varies. An untraced run runs every campaign
// three times and keeps its best timings. With --trace 1 each round runs
// every campaign once, then a traced copy of it, and the result holds the
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/fuzz"
	"closurex/internal/targets"
)

// workload is one set of campaigns. Why each exists is in README.md.
type workload struct {
	name    string
	targets []string
	jobs    int
	// execs is each target's execution budget in one round; roundSec is
	// how long a round, with its repeats and checks, takes on the
	// reference machine, which turns --seconds into a round count.
	// tracedRoundSec is the same for a traced round, which runs each
	// campaign three to five times.
	execs          int64
	roundSec       float64
	tracedRoundSec float64
}

var workloads = []workload{
	{name: "shallow", targets: []string{"libdwarf", "giftext", "libpcap", "zlib"}, jobs: 1, execs: 10000, roundSec: 3, tracedRoundSec: 4.5},
	{name: "deep", targets: []string{"md4c", "bsdtar"}, jobs: 1, execs: 4000, roundSec: 3.3, tracedRoundSec: 4.2},
	{name: "fleet-j2", targets: []string{"gpmf-parser", "c-blosc2", "libbpf"}, jobs: 2, execs: 20000, roundSec: 3.1, tracedRoundSec: 7.5},
}

// repeats is how many times an untraced run runs each identical campaign;
// its figures are the best of them (sample.better). On a shared host a
// campaign's time varies by tens of percent over seconds to minutes, and
// the best of three copies spread over the run varies far less than any
// one copy.
const repeats = 3

// spanDir is where a traced run writes its spans, inside the benchmark's
// build directory.
const spanDir = ".bench_build/spans"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: shallow, deep or fleet-j2")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured seconds; sets the round count")
	trace := fs.Int("trace", 0, "1 runs the traced copy and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "campaignbench: need --workload shallow|deep|fleet-j2, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// A fleet gets one core per shard, as AFL binds each instance to its
	// own core; a J=1 campaign is then a single-core process, and the Go
	// runtime's collector does not stall it waiting on another core.
	runtime.GOMAXPROCS(wl.jobs)
	roundSec := wl.roundSec
	if *trace == 1 {
		roundSec = wl.tracedRoundSec
	}
	rounds := int(math.Ceil(float64(*seconds) / roundSec))
	res, err := runWorkload(*wl, *seed, rounds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundSeed derives round r's campaign seed from the workload seed
// (splitmix64), so rounds are independent campaigns.
func roundSeed(seed uint64, r int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func runWorkload(wl workload, seed uint64, rounds int, traced bool, out io.Writer) (result, error) {
	ts := make([]*targets.Target, len(wl.targets))
	for i, n := range wl.targets {
		if ts[i] = targets.Get(n); ts[i] == nil {
			return result{}, fmt.Errorf("unknown target %q", n)
		}
	}
	fmt.Fprintf(out, "workload %s: %d round(s) of %d execs per target, jobs=%d, nproc=%d, GOMAXPROCS=%d, closed loop, mechanism=closurex, backend=interp, DeterministicRand\n",
		wl.name, rounds, wl.execs, wl.jobs, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	steal0, ticks0 := stealTicks()
	var chk tally
	var lay *layerAcc
	passes := repeats
	if traced {
		lay = newLayerAcc()
		passes = 1
	}
	// best[r][i] is target i's campaign of round r, the best of its
	// repeats. The repeats run in separate passes over all rounds, so the
	// copies of a campaign run far apart in time and a slow spell of the
	// host rarely covers them all.
	best := make([][]sample, rounds)
	for p := 0; p < passes; p++ {
		for r := 0; r < rounds; r++ {
			rs := roundSeed(seed, r)
			if p == 0 {
				best[r] = make([]sample, len(ts))
				if lay != nil {
					lay.beginRound()
				}
			}
			for i, t := range ts {
				tr, err := runUntraced(t, wl.jobs, wl.execs, rs, p == 0, &chk)
				if err != nil {
					return result{}, err
				}
				if p == 0 {
					best[r][i] = tr.sample()
				} else {
					if wl.jobs == 1 {
						chk.check(tr.digest == best[r][i].digest, "%s: round %d: the repeated campaign's digest differs from the first", t.Name, r)
					}
					best[r][i] = best[r][i].better(tr.sample())
				}
				if lay != nil {
					if err := lay.traceTarget(t, wl, rs, int32(r*len(ts)+i), tr, &chk); err != nil {
						return result{}, err
					}
				}
			}
		}
	}
	if steal1, ticks1 := stealTicks(); ticks1 > ticks0 {
		// A shared host's steal slows every timing here; the repeats keep
		// the best run of each campaign for that reason.
		fmt.Fprintf(out, "host steal during the run: %.1f%% of CPU time\n", 100*float64(steal1-steal0)/float64(ticks1-ticks0))
	}
	var roundRate, roundCPU, roundEdges, roundSetup, roundRSS []float64
	for r, row := range best {
		var rates, cpus []float64
		edges, setup, rss := 0.0, 0.0, 0.0
		for _, s := range row {
			rates = append(rates, s.rate)
			cpus = append(cpus, s.cpuUs)
			edges += s.edges
			setup += s.setupS
			rss = max(rss, s.rssMB)
		}
		fmt.Fprintf(out, "round %d: execs/s %.0f, cpu_us/exec %.1f\n", r, rates, cpus)
		roundRate = append(roundRate, geomean(rates))
		roundCPU = append(roundCPU, geomean(cpus))
		roundEdges = append(roundEdges, edges)
		roundSetup = append(roundSetup, setup)
		roundRSS = append(roundRSS, rss)
	}

	fmt.Fprintf(out, "%-12s %12s %14s %9s %10s\n", "target", "execs/s", "cpu_us/exec", "edges", "setup_ms")
	for i, t := range ts {
		var rate, cpuUs, edges, setupMs []float64
		for _, row := range best {
			rate = append(rate, row[i].rate)
			cpuUs = append(cpuUs, row[i].cpuUs)
			edges = append(edges, row[i].edges)
			setupMs = append(setupMs, row[i].setupS*1e3)
		}
		fmt.Fprintf(out, "%-12s %12.0f %14.3f %9.1f %10.3f\n", t.Name, median(rate), median(cpuUs), mean(edges), median(setupMs))
	}
	e2e := map[string]metric{
		"execs_per_s":     {median(roundRate), "1/s"},
		"cpu_us_per_exec": {median(roundCPU), "us"},
		"edges":           {mean(roundEdges), "count"},
		"setup_s":         {median(roundSetup), "s"},
		"peak_rss_mb":     {median(roundRSS), "MB"},
	}
	fmt.Fprintf(out, "fail_frac %.6g (failed %d of %d attempted operations)\n", chk.failFrac(), chk.failed, chk.attempted)
	for _, n := range chk.notes {
		fmt.Fprintf(out, "FAIL %s\n", n)
	}
	res := result{Attempted: chk.attempted, Failed: chk.failed, Metrics: e2e}
	if lay != nil {
		res.Metrics = lay.metrics()
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.csv", wl.name, seed))
		if err := writeSpans(path, lay.lastTracers); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans of the last round written to %s\n", path)
	}
	printMetrics(out, res.Metrics)
	res.Correct = chk.failed == 0
	return res, nil
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-30s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// sample is what the end-to-end metrics read from one campaign.
type sample struct {
	rate, cpuUs, edges, setupS, rssMB float64
	digest                            [32]byte // J=1 only
}

// better combines two runs of the same campaign: each timing and the
// resident high-water mark from whichever run did better, since a shared
// host only ever adds to them. Edges and digest stay those of s, the run
// whose outputs were checked.
func (s sample) better(o sample) sample {
	s.rate = max(s.rate, o.rate)
	s.cpuUs = min(s.cpuUs, o.cpuUs)
	s.setupS = min(s.setupS, o.setupS)
	s.rssMB = min(s.rssMB, o.rssMB)
	return s
}

// targetRun is one untraced campaign.
type targetRun struct {
	setup, wall, cpu time.Duration
	execs            int64 // executions after the bootstrap
	edges            int
	digest           [32]byte // J=1 only
	peakRSSMB        float64  // resident high-water mark of set-up and campaign
	inboxDropped     int64
	restarts         int64
	goDelta          goStats
}

func (tr targetRun) sample() sample {
	return sample{
		rate:   float64(tr.execs) / tr.wall.Seconds(),
		cpuUs:  tr.cpu.Seconds() * 1e6 / float64(tr.execs),
		edges:  float64(tr.edges),
		setupS: tr.setup.Seconds(),
		rssMB:  tr.peakRSSMB,
		digest: tr.digest,
	}
}

// runUntraced builds target t exactly as the closurex-fuzz CLI does
// (core.NewInstance), bootstraps it, runs its execution budget, and then
// checks its image and shards. With replay set it also replays the
// campaign's outputs and planted bugs in fresh images; a repeat of an
// already checked campaign skips that.
func runUntraced(t *targets.Target, jobs int, execs int64, seed uint64, replay bool, chk *tally) (targetRun, error) {
	var tr targetRun
	// Every campaign starts with the garbage of the last one collected and
	// the resident high-water mark reset. The heap the process keeps stays
	// resident, as in a long-running fuzzer: handing it back to the OS
	// before each campaign only to fault it in again made set-up about
	// three times slower, by an amount that varies with the host.
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return tr, err
	}
	start := time.Now()
	in, err := core.NewInstance(t, "closurex", core.InstanceOptions{TrialSeed: seed, DeterministicRand: true, Jobs: jobs})
	if err != nil {
		return tr, err
	}
	defer in.Close()
	pages := make([]int, len(in.Mechs))
	for j, m := range in.Mechs {
		pages[j] = m.(*execmgr.ClosureX).Harness().VM().Mem.Pages()
	}
	shardExecs := func() int64 {
		if in.Parallel == nil {
			return in.Campaign.Execs()
		}
		n := int64(0)
		for j := 0; j < jobs; j++ {
			n += in.Parallel.Shard(j).Execs()
		}
		return n
	}
	if in.Parallel == nil {
		in.Campaign.Step()
	} else {
		for j := 0; j < jobs; j++ {
			in.Parallel.Shard(j).Step()
		}
	}
	tr.setup = time.Since(start)

	drv := in.Driver()
	before := shardExecs()
	g0 := readGoStats()
	cpu0 := cpuTime()
	w0 := time.Now()
	drv.RunExecs(execs)
	tr.wall = time.Since(w0)
	tr.cpu = cpuTime() - cpu0
	tr.goDelta = readGoStats().sub(g0)
	if tr.peakRSSMB, err = peakRSSMB(); err != nil {
		return tr, err
	}
	tr.execs = shardExecs() - before
	tr.edges = drv.Edges()
	chk.ops(shardExecs())
	if in.Parallel == nil {
		tr.digest = digestOf(in.Campaign)
	}

	for j, m := range in.Mechs {
		rs := fuzz.ShardSeed(seed, j)
		base, err := basePages(in.Module, rs)
		if err != nil {
			return tr, err
		}
		checkPages(chk, t, pages[j], base)
		checkImage(t.Name, m, chk)
	}
	if in.Parallel != nil {
		for _, h := range in.Parallel.Health() {
			chk.check(h.Restarts == 0 && !h.Quarantined, "%s: shard %d: %d restart(s), quarantined=%v: %s",
				t.Name, h.Shard, h.Restarts, h.Quarantined, h.LastFault)
			tr.inboxDropped += h.InboxDropped
			tr.restarts += h.Restarts
		}
	}
	if !replay {
		return tr, nil
	}
	f := finished{
		target: t, mod: in.Module, mech: in.Mech, cov: in.CovMap, randSeed: seed,
		virgin: drv.BitmapSnapshot(), queue: drv.Queue(), crashes: drv.Crashes(), hangs: drv.Hangs(),
	}
	checkReplays(f, chk)
	checkBugs(f, chk)
	return tr, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the time the hypervisor ran something else on this
// machine's CPUs, and the total, from /proc/stat (Linux; 0, 0 elsewhere).
func stealTicks() (steal, total int64) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseInt(x, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS resets the process's resident high-water mark (Linux).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident high-water mark since the last reset.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// goStats are the Go runtime's cumulative allocation and GC CPU counters.
type goStats struct {
	allocs, allocBytes, gcCPU float64
}

var goStatNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocs: v(0), allocBytes: v(1), gcCPU: v(2)}
}

func (g goStats) add(o goStats) goStats {
	return goStats{g.allocs + o.allocs, g.allocBytes + o.allocBytes, g.gcCPU + o.gcCPU}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{g.allocs - o.allocs, g.allocBytes - o.allocBytes, g.gcCPU - o.gcCPU}
}
