package fuzz

import (
	"errors"
	"testing"
)

// FuzzResume feeds arbitrary bytes to Resume and to ResumeParallel at one
// and two shards. A checkpoint is untrusted input: every rejection must
// wrap ErrBadCheckpoint, nothing may panic, and a blob that is accepted
// must leave a campaign that keeps stepping.
func FuzzResume(f *testing.F) {
	seq, _ := newResilienceCampaign([][]byte{{'a'}, {'H', 1}, {0xee}}, 5)
	seq.RunExecs(200)
	blob, err := seq.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	fleet, err := NewParallelCampaign(fuzzFleetConfig(2))
	if err != nil {
		f.Fatal(err)
	}
	fleet.RunExecs(500)
	if blob, err = fleet.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	f.Add(blob)

	const steps = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		cov := make([]byte, MapSize)
		c, err := Resume(Config{Executor: &resilienceExecutor{cov: cov}, CovMap: cov, Seed: 5}, data)
		checkRejection(t, "Resume", err)
		if err == nil {
			for i := 0; i < steps; i++ {
				c.Step()
			}
		}
		for _, jobs := range []int{1, 2} {
			p, err := ResumeParallel(fuzzFleetConfig(jobs), data)
			checkRejection(t, "ResumeParallel", err)
			if err != nil {
				continue
			}
			for j := 0; j < jobs; j++ {
				for i := 0; i < steps; i++ {
					p.Shard(j).Step()
				}
			}
		}
	})
}

// fuzzFleetConfig is a ladder fleet of the given width under the seed and
// fingerprint FuzzResume's parallel seed checkpoint was taken with.
func fuzzFleetConfig(jobs int) ParallelConfig {
	var shards []ShardConfig
	for j := 0; j < jobs; j++ {
		ex, cov := newLadder("MAGIC")
		shards = append(shards, ShardConfig{Executor: ex, CovMap: cov})
	}
	return ParallelConfig{
		Shards: shards, Seed: 31, Fingerprint: "ladder@test",
		Seeds: [][]byte{[]byte("xxxxxxxx")}, SyncEvery: 64,
	}
}

func checkRejection(t *testing.T, fn string, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("%s rejection does not wrap ErrBadCheckpoint: %v", fn, err)
	}
}
