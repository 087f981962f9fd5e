package ingest

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/geom"
	"geofootprint/internal/store"
)

// legacyCheckpoint is a checkpoint in the format releases before the
// columnar one wrote: gob metadata (Seq 41, no open sessions) followed
// by the gob wire form of migrationDB.
const legacyCheckpoint = "testdata/legacy-checkpoint.snap"

func migrationDB(t *testing.T) *store.FootprintDB {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	fps := make([]core.Footprint, 20)
	for u := range fps {
		n := 1 + rng.Intn(5)
		f := make(core.Footprint, n)
		for i := range f {
			x, y := rng.Float64(), rng.Float64()
			f[i] = core.Region{
				Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.03, MaxY: y + 0.02},
				Weight: 1,
			}
		}
		core.SortByMinX(f)
		fps[u] = f
	}
	ids := make([]int, len(fps))
	for i := range ids {
		ids[i] = i
	}
	db, err := store.FromFootprints("ingest", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCheckpointFormatMigration: a legacy gob checkpoint is read
// transparently, and the very next checkpoint rewrites the file in
// columnar form with nothing lost — the deployment migrates on its
// first snapshot interval.
func TestCheckpointFormatMigration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.snap")
	copyFile(t, legacyCheckpoint, path)
	db := migrationDB(t)
	state := State{Seq: 41}

	// Old format must not be mistaken for columnar.
	if _, err := colstore.OpenFS(faultfs.OS, path, colstore.ModeRead); !errors.Is(err, colstore.ErrNotColumnar) {
		t.Fatalf("legacy file: want ErrNotColumnar from colstore, got %v", err)
	}

	got, gotState, err := readSnapshotFile(faultfs.OS, path, "ingest")
	if err != nil {
		t.Fatalf("reading legacy snapshot: %v", err)
	}
	if gotState.Seq != state.Seq {
		t.Fatalf("recovered seq %d, want %d", gotState.Seq, state.Seq)
	}
	mustMatch(t, got, db)

	// The next checkpoint converts the file in place (atomically).
	if err := writeSnapshotFile(faultfs.OS, path, gotState, got); err != nil {
		t.Fatalf("rewriting checkpoint: %v", err)
	}
	snap, err := colstore.OpenFS(faultfs.OS, path, colstore.ModeRead)
	if err != nil {
		t.Fatalf("rewritten checkpoint is not columnar: %v", err)
	}
	if snap.Meta == nil {
		t.Fatal("columnar checkpoint carries no meta section")
	}
	again, againState, err := readSnapshotFile(faultfs.OS, path, "ingest")
	if err != nil {
		t.Fatalf("re-reading columnar checkpoint: %v", err)
	}
	if againState.Seq != state.Seq {
		t.Fatalf("columnar seq %d, want %d", againState.Seq, state.Seq)
	}
	mustMatch(t, again, db)
}

// TestRecoverCorruptSnapshotFault: a damaged checkpoint stops recovery
// with store.ErrCorruptSnapshot by default; with the operator opt-in
// the database is rebuilt from the WAL alone and the corruption is
// reported, not swallowed.
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

	// Crash-copy the WAL (no checkpoint was written) and plant a
	// corrupt snapshot next to it.
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

	if err := os.WriteFile(crashed.SnapshotPath, []byte("not a snapshot of either format"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Default: fail loudly.
	if _, err := Recover(crashed); !errors.Is(err, store.ErrCorruptSnapshot) {
		t.Fatalf("corrupt snapshot: want ErrCorruptSnapshot, got %v", err)
	}

	// Opt-in: WAL-only rebuild, corruption surfaced on the result.
	crashed.AllowCorruptSnapshot = true
	rec, err := Recover(crashed)
	if err != nil {
		t.Fatalf("tolerant recovery: %v", err)
	}
	if rec.SnapshotErr == nil || !errors.Is(rec.SnapshotErr, store.ErrCorruptSnapshot) {
		t.Fatalf("tolerant recovery did not report the corruption: %v", rec.SnapshotErr)
	}
	mustMatch(t, rec.DB, ref.DB)
	if rec.State.Seq != ref.State.Seq {
		t.Fatalf("tolerant recovery seq %d, want %d", rec.State.Seq, ref.State.Seq)
	}
}
