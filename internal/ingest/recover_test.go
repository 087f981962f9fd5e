package ingest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"geofootprint/internal/geom"
	"geofootprint/internal/store"
	"geofootprint/internal/traj"
)

// TestRecoverCorruptSnapshotFault: a checkpoint path holding a file
// recovery cannot trust — garbage, a trajectory dataset in the binary
// format geogen writes, or a gob dataset behind gob checkpoint meta — stops
// recovery with store.ErrCorruptSnapshot by default; with the operator
// opt-in the database is rebuilt from the WAL alone and the corruption
// is reported, not swallowed.
func TestRecoverCorruptSnapshotFault(t *testing.T) {
	cfg := testConfig(t)
	batches := splitBatches(genStream(8, 1500, 23), 7)
	p, err := New(cfg, &DBSink{DB: &store.FootprintDB{Name: "ingest"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, p, batches)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}

	// Crash-copy the WAL (no checkpoint was written); each file is
	// planted next to it as the checkpoint.
	dir := t.TempDir()
	crashed := cfg
	crashed.WALPath = filepath.Join(dir, "ingest.wal")
	crashed.SnapshotPath = filepath.Join(dir, "ingest.snap")
	copyFile(t, cfg.WALPath, crashed.WALPath)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: recovery from the WAL with no snapshot at all.
	ref, err := Recover(crashed)
	if err != nil {
		t.Fatalf("reference recovery: %v", err)
	}
	if ref.SnapshotErr != nil {
		t.Fatalf("clean recovery reported snapshot error: %v", ref.SnapshotErr)
	}

	dataset := &traj.Dataset{Name: "partA", SampleInterval: 1, Users: []traj.User{{ID: 1,
		Sessions: []traj.Trajectory{{{P: geom.Point{X: 0.4, Y: 0.4}, T: 0}, {P: geom.Point{X: 0.41, Y: 0.4}, T: 1}}}}}}
	for _, planted := range []struct {
		name  string
		plant func(path string) error
	}{
		{"garbage", func(path string) error { return os.WriteFile(path, []byte("not a snapshot"), 0o644) }},
		{"trajectory dataset", func(path string) error {
			var b bytes.Buffer
			if err := traj.WriteBinary(&b, dataset); err != nil {
				return err
			}
			return os.WriteFile(path, b.Bytes(), 0o644)
		}},
		// The gob checkpoint layout of earlier releases — checkpoint
		// meta, then a second gob stream for the database — holding the
		// dataset: their gob reader took it for an empty database.
		{"gob meta, then the dataset", func(path string) error {
			type snapMeta struct { // the old meta's name and fields, so its bytes
				Seq      uint64
				Sessions []SessionState
			}
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(snapMeta{Seq: 1}); err != nil {
				return err
			}
			if err := gob.NewEncoder(&b).Encode(dataset); err != nil {
				return err
			}
			return os.WriteFile(path, b.Bytes(), 0o644)
		}},
	} {
		name := planted.name
		if err := planted.plant(crashed.SnapshotPath); err != nil {
			t.Fatal(err)
		}

		// Default: fail loudly.
		crashed.AllowCorruptSnapshot = false
		if _, err := Recover(crashed); !errors.Is(err, store.ErrCorruptSnapshot) {
			t.Fatalf("%s: want ErrCorruptSnapshot, got %v", name, err)
		}

		// Opt-in: WAL-only rebuild, corruption surfaced on the result.
		crashed.AllowCorruptSnapshot = true
		rec, err := Recover(crashed)
		if err != nil {
			t.Fatalf("%s: tolerant recovery: %v", name, err)
		}
		if rec.SnapshotErr == nil || !errors.Is(rec.SnapshotErr, store.ErrCorruptSnapshot) {
			t.Fatalf("%s: tolerant recovery did not report the corruption: %v", name, rec.SnapshotErr)
		}
		mustMatch(t, rec.DB, ref.DB)
		if rec.State.Seq != ref.State.Seq {
			t.Fatalf("%s: tolerant recovery seq %d, want %d", name, rec.State.Seq, ref.State.Seq)
		}
	}
}
