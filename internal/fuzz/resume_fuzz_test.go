package fuzz

import (
	"errors"
	"testing"
)

// FuzzResume feeds arbitrary bytes to the shard-record decoder (resume) and
// to ResumeParallel at one and two shards. A checkpoint is untrusted input:
// every rejection must wrap ErrBadCheckpoint, nothing may panic, and a blob
// that is accepted must leave a campaign that keeps stepping. The seeds are
// a shard record, a two-shard envelope and a one-shard envelope (the shape
// every Jobs=1 instance writes).
func FuzzResume(f *testing.F) {
	seq, _ := newResilienceCampaign([][]byte{{'a'}, {'H', 1}, {0xee}}, 5)
	seq.RunExecs(200)
	blob, err := seq.checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, jobs := range []int{2, 1} {
		fleet, err := NewParallelCampaign(fuzzFleetConfig(jobs))
		if err != nil {
			f.Fatal(err)
		}
		fleet.RunExecs(500)
		if blob, err = fleet.Checkpoint(); err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	const steps = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		cov := make([]byte, MapSize)
		c, err := resume(Config{Executor: &resilienceExecutor{cov: cov}, CovMap: cov, Seed: 5}, data)
		checkRejection(t, "resume", err)
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
