package fuzz

// Atomic checkpoint file IO. Checkpoints are written to a temp file in the
// destination directory and renamed into place, so a crash (or an injected
// fault) mid-write can never leave a truncated file under the checkpoint's
// name: readers see either the previous complete checkpoint or the new one,
// never a torn mix. The temp file is fsynced before the rename so the
// rename cannot be durably ordered ahead of the data it names.

import (
	"fmt"
	"os"
	"path/filepath"

	"closurex/internal/faultinject"
)

// SaveCheckpoint serializes p and writes the blob atomically to path. The
// injector (nil for production) arms the CheckpointWrite chaos site, which
// fails the write mid-stream the way a full disk or a crash would.
func SaveCheckpoint(p *ParallelCampaign, path string, inj *faultinject.Injector) error {
	blob, err := p.Checkpoint()
	if err != nil {
		return err
	}
	return WriteCheckpointFile(path, blob, inj)
}

// WriteCheckpointFile atomically replaces path with blob via a temp file in
// the same directory plus rename. On any failure the previous file at path
// is untouched; a partial temp file may remain (its name never collides
// with a checkpoint name, and the next successful write reuses the slot).
func WriteCheckpointFile(path string, blob []byte, inj *faultinject.Injector) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("fuzz: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if inj.Should(faultinject.CheckpointWrite) {
		// Model the torn write: half the blob lands, then the writer dies.
		_, _ = tmp.Write(blob[:len(blob)/2])
		tmp.Close()
		return fmt.Errorf("fuzz: checkpoint write %s: %w", tmpName, faultinject.Err(faultinject.CheckpointWrite))
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("fuzz: checkpoint write %s: %w", tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("fuzz: checkpoint sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fuzz: checkpoint close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fuzz: checkpoint rename: %w", err)
	}
	return nil
}

// LoadCheckpointFile reads a checkpoint blob written by WriteCheckpointFile.
func LoadCheckpointFile(path string) ([]byte, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fuzz: read checkpoint %s: %w", path, err)
	}
	return blob, nil
}
