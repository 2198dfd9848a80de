package fuzz

// Torn-write regression for the atomic checkpoint path: an injected failure
// mid-write (modeling a crash or a full disk) must leave the previous
// checkpoint intact and resumable, and the half-written blob must be
// rejected by ResumeParallel with ErrBadCheckpoint rather than misparsed.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"closurex/internal/faultinject"
)

func newCheckpointFleet(t *testing.T) (*ParallelCampaign, func() ParallelConfig) {
	t.Helper()
	mk := func() ParallelConfig {
		var shards []ShardConfig
		for j := 0; j < 2; j++ {
			ex, cov := newLadder("MAGIC")
			shards = append(shards, ShardConfig{Executor: ex, CovMap: cov})
		}
		return ParallelConfig{
			Shards: shards, Seed: 31, Fingerprint: "ladder@test",
			Seeds: [][]byte{[]byte("xxxxxxxx")}, SyncEvery: 64,
		}
	}
	p, err := NewParallelCampaign(mk())
	if err != nil {
		t.Fatal(err)
	}
	return p, mk
}

func TestCheckpointTornWriteLeavesOldFileIntact(t *testing.T) {
	defer checkGoroutineLeak(t)()
	p, mk := newCheckpointFleet(t)
	p.RunExecs(4000)

	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	if err := SaveCheckpoint(p, path, nil); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Second save dies mid-write: the file under the checkpoint name must
	// still hold the first, complete blob.
	p.RunExecs(8000)
	inj := faultinject.New(7)
	inj.FailAfter(faultinject.CheckpointWrite, 0, 1)
	if err := SaveCheckpoint(p, path, inj); err == nil {
		t.Fatal("injected checkpoint-write fault did not surface an error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint file lost after torn write: %v", err)
	}
	if len(after) != len(good) || string(after) != string(good) {
		t.Fatal("torn write mutated the previous checkpoint in place")
	}
	// The surviving file still resumes.
	if _, err := ResumeParallel(mk(), after); err != nil {
		t.Fatalf("previous checkpoint no longer resumes after torn write: %v", err)
	}

	// The torn temp blob itself must be rejected, not misparsed.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var torn string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			torn = filepath.Join(dir, e.Name())
		}
	}
	if torn == "" {
		t.Fatal("torn temp file not found; fault model changed?")
	}
	blob, err := LoadCheckpointFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 || len(blob) >= len(good) {
		t.Fatalf("torn blob is %d bytes, want a strict prefix of %d", len(blob), len(good))
	}
	if _, err := ResumeParallel(mk(), blob); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("torn blob accepted: %v", err)
	}

	// A later fault-free save overwrites cleanly and resumes with the
	// newer progress.
	if err := SaveCheckpoint(p, path, nil); err != nil {
		t.Fatalf("post-fault checkpoint: %v", err)
	}
	blob, err = LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResumeParallel(mk(), blob)
	if err != nil {
		t.Fatalf("post-fault resume: %v", err)
	}
	if res.Execs() != p.Execs() {
		t.Fatalf("post-fault checkpoint stale: execs %d, want %d", res.Execs(), p.Execs())
	}
}

func TestCheckpointWriteFailureCleansUpTemp(t *testing.T) {
	// A plain write error (no injector) must remove the temp file so failed
	// saves do not accumulate garbage next to the checkpoint.
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	if err := WriteCheckpointFile(path, []byte("hello checkpoint"), nil); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "x.ckpt" {
		t.Fatalf("unexpected directory contents after clean write: %v", ents)
	}
	got, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello checkpoint" {
		t.Fatalf("round-trip mismatch: %q", got)
	}
}
