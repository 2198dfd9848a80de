package closurex

import (
	"bytes"
	"encoding/gob"
	"errors"
	"sort"
	"testing"
	"time"

	"closurex/internal/core"
	"closurex/internal/execmgr"
	"closurex/internal/faultinject"
	"closurex/internal/fuzz"
	"closurex/internal/targets"
)

// Facade-level resilience coverage: checkpoint/resume round-trips through
// the public API, every default campaign runs under the recovery ladder,
// the sentinel is reachable through Options, and a resumed campaign
// matches an uninterrupted one.

func TestFuzzerCheckpointResumeMatchesUninterrupted(t *testing.T) {
	seeds := [][]byte{[]byte("B?"), []byte("B!")} // second seed crashes at bootstrap
	opts := Options{Seed: 11, MaxInputLen: 8, DeterministicRand: true}

	uninterrupted, err := NewFuzzer(demoSource, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer uninterrupted.Close()
	uninterrupted.RunExecs(8000)

	killed, err := NewFuzzer(demoSource, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	killed.RunExecs(3000)
	ckpt, err := killed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	killed.Close() // the "killed" process is gone; only the bytes survive

	ropts := opts
	ropts.ResumeFrom = ckpt
	resumed, err := NewFuzzer(demoSource, seeds, ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if got := resumed.Stats().Execs; got != 3000 {
		t.Fatalf("resumed at %d execs, want 3000", got)
	}
	resumed.RunExecs(8000)

	a, b := uninterrupted.Stats(), resumed.Stats()
	if a.Execs != b.Execs || a.Edges != b.Edges || a.QueueLen != b.QueueLen {
		t.Fatalf("resumed run diverged: execs %d/%d edges %d/%d queue %d/%d",
			a.Execs, b.Execs, a.Edges, b.Edges, a.QueueLen, b.QueueLen)
	}
	if len(a.Crashes) == 0 {
		t.Fatal("test premise broken: the crashing seed produced no crash")
	}
	if len(a.Crashes) != len(b.Crashes) {
		t.Fatalf("crash tables: %d vs %d", len(a.Crashes), len(b.Crashes))
	}
	for i := range a.Crashes {
		if a.Crashes[i].Key != b.Crashes[i].Key || a.Crashes[i].Count != b.Crashes[i].Count {
			t.Fatalf("crash %d: %+v vs %+v", i, a.Crashes[i], b.Crashes[i])
		}
	}
}

func TestResumeRejectsMismatchedSeed(t *testing.T) {
	f, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{Seed: 1, DeterministicRand: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.RunExecs(200)
	ckpt, err := f.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{Seed: 2, ResumeFrom: ckpt}); err == nil {
		t.Fatal("resume with a different seed accepted")
	}
}

// Every fuzzer runs through the shard fleet, so a Jobs=1 fuzzer reports
// its one shard's health.
func TestShardHealthAtJobsOne(t *testing.T) {
	f, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{Seed: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.RunExecs(500)
	h := f.ShardHealth()
	if len(h) != 1 {
		t.Fatalf("ShardHealth at Jobs=1 has %d entries, want 1", len(h))
	}
	if h[0].Execs < 500 || h[0].Quarantined || f.HealthyShards() != 1 {
		t.Fatalf("shard 0 health = %+v, healthy shards = %d", h[0], f.HealthyShards())
	}
}

// A checkpoint resumes at any Jobs: the corpus, coverage and exec count
// survive a Jobs=1 -> 2 and a Jobs=2 -> 1 resume, and the resumed fuzzer
// keeps fuzzing.
func TestCheckpointResumesAcrossJobs(t *testing.T) {
	seeds := [][]byte{[]byte("B?"), []byte("ab")}
	for _, tc := range []struct{ from, to int }{{1, 2}, {2, 1}} {
		opts := Options{Seed: 7, DeterministicRand: true, Jobs: tc.from}
		src, err := NewFuzzer(demoSource, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		src.RunExecs(3000)
		ckpt, err := src.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		want, wantCorpus := src.Stats(), sortedCorpus(src)
		src.Close()

		opts.Jobs, opts.ResumeFrom = tc.to, ckpt
		res, err := NewFuzzer(demoSource, seeds, opts)
		if err != nil {
			t.Fatalf("Jobs=%d checkpoint rejected at Jobs=%d: %v", tc.from, tc.to, err)
		}
		got := res.Stats()
		if got.Execs != want.Execs || got.Edges != want.Edges || len(got.Crashes) != len(want.Crashes) {
			t.Fatalf("Jobs=%d -> %d lost progress: execs %d/%d edges %d/%d crashes %d/%d", tc.from, tc.to,
				want.Execs, got.Execs, want.Edges, got.Edges, len(want.Crashes), len(got.Crashes))
		}
		gotCorpus := sortedCorpus(res)
		if len(gotCorpus) != len(wantCorpus) {
			t.Fatalf("Jobs=%d -> %d: corpus %d entries, want %d", tc.from, tc.to, len(gotCorpus), len(wantCorpus))
		}
		for i := range wantCorpus {
			if !bytes.Equal(gotCorpus[i], wantCorpus[i]) {
				t.Fatalf("Jobs=%d -> %d: corpus entry %q lost", tc.from, tc.to, wantCorpus[i])
			}
		}
		res.RunExecs(want.Execs + 500)
		if res.Stats().Execs < want.Execs+500 {
			t.Fatalf("Jobs=%d -> %d: resumed fuzzer did not continue", tc.from, tc.to)
		}
		res.Close()
	}
}

func sortedCorpus(f *Fuzzer) [][]byte {
	c := f.Corpus()
	sort.Slice(c, func(i, j int) bool { return bytes.Compare(c[i], c[j]) < 0 })
	return c
}

// Checkpoints in the older formats are rejected with ErrBadCheckpoint: a
// sequential-campaign blob (the v1 layout, which is exactly one shard
// record) and a v2 envelope that carried a merged view beside the records.
func TestResumeRejectsOldCheckpointFormats(t *testing.T) {
	seeds := [][]byte{[]byte("ab")}
	f, err := NewFuzzer(demoSource, seeds, Options{Seed: 3, DeterministicRand: true})
	if err != nil {
		t.Fatal(err)
	}
	f.RunExecs(500)
	ckpt, err := f.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	corpus := f.Corpus()
	f.Close()
	var env struct {
		Version     int
		Jobs        int
		Seed        uint64
		Fingerprint string
		Elapsed     time.Duration
		Shards      [][]byte
	}
	if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	type entry struct{ Input []byte }
	v2 := struct {
		Version     int
		Jobs        int
		Seed        uint64
		Fingerprint string
		Shards      [][]byte
		Corpus      []entry
		Virgin      []byte
		Edges       int
		Execs       int64
		Elapsed     time.Duration
	}{2, 1, env.Seed, env.Fingerprint, env.Shards, nil, make([]byte, fuzz.MapSize), st.Edges, st.Execs, env.Elapsed}
	for _, in := range corpus {
		v2.Corpus = append(v2.Corpus, entry{in})
	}
	var v2Blob bytes.Buffer
	if err := gob.NewEncoder(&v2Blob).Encode(&v2); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{"v1 sequential": env.Shards[0], "v2 envelope": v2Blob.Bytes()} {
		_, err := NewFuzzer(demoSource, seeds, Options{Seed: 3, ResumeFrom: blob})
		if !errors.Is(err, fuzz.ErrBadCheckpoint) {
			t.Fatalf("%s checkpoint: got %v, want ErrBadCheckpoint", name, err)
		}
	}
}

// The default path: every closurex fuzzer runs a bare ClosureX image under
// the shard supervisor's recovery ladder, which stays silent on a healthy
// target.
func TestDefaultFuzzerKeepsBareClosureX(t *testing.T) {
	f, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, ok := f.inst.Mech.(*execmgr.ClosureX); !ok || f.Mechanism() != "closurex" {
		t.Fatalf("Mechanism = %q (%T)", f.Mechanism(), f.inst.Mech)
	}
	f.RunExecs(2000)
	st := f.Stats()
	if st.Degraded {
		t.Fatal("healthy target degraded the mechanism")
	}
	if st.Execs < 2000 || st.Edges == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if h := f.ShardHealth()[0]; h.Restarts != 0 || h.Rebuilds != 0 || h.RestoreFailures != 0 || st.Quarantined != 0 {
		t.Fatalf("ladder engaged on a healthy target: %+v, quarantined %d", h, st.Quarantined)
	}
}

// A default campaign, with no resilience option, acts on a restore fault:
// the supervisor drains the error the harness recorded, quarantines the
// input and rebuilds the image before the next input runs.
func TestDefaultCampaignActsOnRestoreFault(t *testing.T) {
	inj := faultinject.New(1)
	inj.FailAfter(faultinject.RestoreGlobals, 300, 1)
	tgt := &targets.Target{Name: "user", Short: "user", Source: demoSource, MaxInputLen: 64,
		Seeds: func() [][]byte { return [][]byte{[]byte("ab")} }}
	inst, err := core.NewInstance(tgt, "closurex", core.InstanceOptions{TrialSeed: 2, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	f := &Fuzzer{inst: inst}
	defer f.Close()
	f.RunExecs(2000)
	if inj.Fired(faultinject.RestoreGlobals) != 1 {
		t.Fatal("test premise broken: the restore fault never fired")
	}
	h := f.ShardHealth()[0]
	if h.RestoreFailures != 1 || h.Rebuilds != 1 {
		t.Fatalf("RestoreFailures = %d, Rebuilds = %d, want 1, 1", h.RestoreFailures, h.Rebuilds)
	}
	st := f.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want the input that broke the image", st.Quarantined)
	}
	if st.Execs < 2000 {
		t.Fatalf("campaign stopped at %d execs", st.Execs)
	}
}

// driftSource makes the stale global observable: without restoration the
// return value climbs with every iteration of the persistent child.
const driftSource = `
int runs;
int main(void) {
	runs++;
	int f = fopen("/input", "r");
	if (!f) abort();
	int a = fgetc(f);
	fclose(f);
	return 100 * runs + a;
}
`

func TestSentinelOptionFlagsNaivePersistence(t *testing.T) {
	f, err := NewFuzzer(driftSource, [][]byte{[]byte("ab")}, Options{
		Mechanism:     "persistent-naive",
		Seed:          6,
		SentinelEvery: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.RunExecs(600)
	if st := f.Stats(); st.Divergences == 0 {
		t.Fatalf("sentinel missed persistent-naive's state pollution: %+v", st)
	}
}

func TestSentinelOptionQuietOnClosureX(t *testing.T) {
	f, err := NewFuzzer(demoSource, [][]byte{[]byte("ab")}, Options{
		Seed:          6,
		SentinelEvery: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.RunExecs(600)
	if st := f.Stats(); st.Divergences != 0 {
		t.Fatalf("false-positive divergences on closurex: %+v", st)
	}
}
