package fuzz

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"
)

// Supervisors decide between "retry with the right flags" and "start
// fresh" by errors.Is(err, ErrBadCheckpoint); every rejection of a shard
// record or a fleet envelope must carry the sentinel.
func TestResumeRejectionsWrapErrBadCheckpoint(t *testing.T) {
	c, ex := newResilienceCampaign([][]byte{{'a'}}, 5)
	c.RunExecs(100)
	good, err := c.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Executor: ex, CovMap: ex.cov, Seed: 5}
	// mangle re-encodes the good record with one field made hostile.
	mangle := func(edit func(st *checkpointState)) []byte { return mangleRecord(t, good, edit) }
	// The elastic path (a 2-shard fleet checkpoint resumed on 1 shard)
	// decodes every shard record too; one with a short virgin map fails.
	fleet, mkFleet := newCheckpointFleet(t)
	fleet.RunExecs(500)
	fleetBlob, err := fleet.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var pst parallelState
	if err := gob.NewDecoder(bytes.NewReader(fleetBlob)).Decode(&pst); err != nil {
		t.Fatal(err)
	}
	pst.Shards[1] = mangleRecord(t, pst.Shards[1], func(st *checkpointState) { st.Virgin = st.Virgin[:1] })
	var shortFleet bytes.Buffer
	if err := gob.NewEncoder(&shortFleet).Encode(&pst); err != nil {
		t.Fatal(err)
	}
	resumeOneShard := func(data []byte) error {
		pcfg := mkFleet()
		pcfg.Shards = pcfg.Shards[:1]
		_, err := ResumeParallel(pcfg, data)
		return err
	}

	cases := []struct {
		name string
		cfg  Config
		data []byte
		// via overrides resume(cfg, data) for fleet envelopes.
		via func(data []byte) error
	}{
		{"garbage bytes", cfg, []byte("not a checkpoint"), nil},
		{"seed mismatch", func() Config { c := cfg; c.Seed = 6; return c }(), good, nil},
		{"fingerprint mismatch", func() Config { c := cfg; c.Fingerprint = "other@fresh"; return c }(), good, nil},
		{"empty queue", cfg, mangle(func(st *checkpointState) { st.Queue = nil; st.CurIndex = -1; st.Burst = 0 }), nil},
		{"negative cursor", cfg, mangle(func(st *checkpointState) { st.Cursor = -1 }), nil},
		{"negative sentinel cursor", cfg, mangle(func(st *checkpointState) { st.SentCursor = -1 }), nil},
		{"negative burst", cfg, mangle(func(st *checkpointState) { st.Burst = -1 }), nil},
		{"current entry out of range", cfg, mangle(func(st *checkpointState) { st.CurIndex = len(st.Queue); st.Burst = 0 }), nil},
		{"wrong-size virgin", cfg, mangle(func(st *checkpointState) { st.Virgin = st.Virgin[:1] }), nil},
		{"wrong-size virgin elastic", cfg, shortFleet.Bytes(), resumeOneShard},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.via != nil {
				err = tc.via(tc.data)
			} else {
				_, err = resume(tc.cfg, tc.data)
			}
			if err == nil {
				t.Fatal("bad checkpoint accepted")
			}
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("rejection not errors.Is(ErrBadCheckpoint): %v", err)
			}
		})
	}

	// The matching configuration still resumes.
	if _, err := resume(cfg, good); err != nil {
		t.Fatalf("good checkpoint rejected: %v", err)
	}
}

// mangleRecord decodes a shard record, applies edit, and re-encodes it.
func mangleRecord(t *testing.T, blob []byte, edit func(st *checkpointState)) []byte {
	t.Helper()
	var st checkpointState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	edit(&st)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
