package ingest

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"

	"geofootprint/internal/faultfs"
	"geofootprint/internal/store"
	"geofootprint/internal/wal"
)

// Snapshot file format: a columnar snapshot (internal/colstore) whose
// CRC-guarded meta section holds the gob-encoded checkpoint metadata
// (applied sequence number + open sessions). It is written through
// store.WriteColumnarFS, so the file at SnapshotPath is always a
// complete snapshot or absent — never torn. Single-file atomicity is
// what keeps the snapshot and its sequence number in lockstep: a
// database newer than its Seq would make recovery double-apply WAL
// records, a database older would drop acknowledged writes.

type snapMeta struct {
	Seq      uint64
	Sessions []SessionState
}

func writeSnapshotFile(fsys faultfs.FS, path string, state State, db *store.FootprintDB) error {
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(snapMeta{Seq: state.Seq, Sessions: state.Sessions}); err != nil {
		return fmt.Errorf("ingest: encoding snapshot meta: %w", err)
	}
	return store.WriteColumnarFS(fsys, path, db.Columnar(meta.Bytes()))
}

// readSnapshotFile loads a checkpoint; a missing file yields a fresh
// empty database and zero state. A file store cannot trust — damaged,
// or not a columnar snapshot at all — and undecodable checkpoint meta
// report store.ErrCorruptSnapshot, so the caller can distinguish
// damaged durable state from a first boot.
func readSnapshotFile(fsys faultfs.FS, path, name string) (*store.FootprintDB, State, error) {
	db, blob, err := store.OpenMetaFS(fsys, path)
	if os.IsNotExist(err) {
		return &store.FootprintDB{Name: name}, State{}, nil
	}
	if err != nil {
		return nil, State{}, err
	}
	var meta snapMeta
	if blob != nil {
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&meta); err != nil {
			return nil, State{}, fmt.Errorf("%w: %s: decoding snapshot meta: %w",
				store.ErrCorruptSnapshot, path, err)
		}
	}
	return db, State{Seq: meta.Seq, Sessions: meta.Sessions}, nil
}

// RecoverResult is what startup recovery hands back: the database with
// every durable record applied, and the pipeline state to resume from.
type RecoverResult struct {
	DB    *store.FootprintDB
	State *State
	// Replayed counts the WAL records applied on top of the snapshot;
	// Skipped counts records the snapshot already covered.
	Replayed int
	Skipped  int
	// Damaged reports that the WAL had a torn or corrupt tail, which
	// replay stopped at (and the next wal.Open will truncate).
	Damaged bool
	// SnapshotErr is the store.ErrCorruptSnapshot recovery tolerated
	// under Config.AllowCorruptSnapshot: the snapshot was damaged, the
	// database was rebuilt from the WAL alone (data the WAL no longer
	// holds — checkpointed before the corruption — is lost), and the
	// serving layer should report degraded until a fresh checkpoint
	// replaces the file. Nil on a clean recovery.
	SnapshotErr error
}

// Recover rebuilds the ingestion state after a restart: load the
// snapshot (if any), then replay every WAL record past the snapshot's
// sequence number, one at a time, through the apply function the live
// pipeline runs (applyRecords). Because both paths are the same
// deterministic function of the record sequence, the recovered
// database is byte-identical to one from an uninterrupted run over the
// same records.
//
// Pass the result's DB to the serving layer and its State to New.
func Recover(cfg Config) (*RecoverResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	db, state, err := readSnapshotFile(cfg.FS, cfg.SnapshotPath, cfg.Name)
	var snapErr error
	if err != nil {
		if !cfg.AllowCorruptSnapshot || !errors.Is(err, store.ErrCorruptSnapshot) {
			return nil, err
		}
		// Operator opted in: serve what the WAL can reconstruct. The
		// corrupt file is left in place for forensics; the next
		// checkpoint atomically replaces it.
		snapErr = err
		db, state = &store.FootprintDB{Name: cfg.Name}, State{}
	}
	sess, err := newSessionizer(cfg.Extract, cfg.SessionGap)
	if err != nil {
		return nil, err
	}
	if err := sess.restore(state.Sessions); err != nil {
		return nil, err
	}
	sink := &DBSink{DB: db, Weighting: cfg.Weighting}
	res := &RecoverResult{DB: db, SnapshotErr: snapErr}
	_, damaged, err := wal.ReplayFS(cfg.FS, cfg.WALPath, func(rec wal.Record) error {
		if rec.LSN <= state.Seq {
			res.Skipped++
			return nil
		}
		r, err := DecodeRecord(rec.Payload)
		if err != nil {
			return err
		}
		if err := applyRecords(sess, sink, []Record{r}); err != nil {
			return err
		}
		state.Seq = rec.LSN
		res.Replayed++
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Damaged = damaged
	res.State = &State{Seq: state.Seq, Sessions: sess.snapshot()}
	return res, nil
}
