package ingest

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"geofootprint/internal/faultfs"
	"geofootprint/internal/store"
	"geofootprint/internal/wal"
)

// The fault matrix: each case injects one deterministic storage fault
// under a live pipeline fed sample batches and edits, and asserts the
// only acceptable outcomes —
//
//   - acknowledged records form a prefix of the stream, and
//   - recovery on a healthy filesystem rebuilds exactly the reference
//     database over recs[:m], where m is either the acknowledged
//     count or (only when the faulted record physically reached the
//     file, as after a failed fsync) acknowledged+1.
//
// Anything else — a missing acknowledged record, a half-applied one,
// a decode error, a crash — is silent corruption, the one thing the
// WAL exists to rule out.

// feedUntilError pushes records until one is refused, returning how
// many were acknowledged and the first non-backpressure error.
func feedUntilError(t *testing.T, p *Pipeline, recs []Record) (acked int, ferr error) {
	t.Helper()
	for _, rec := range recs {
		for {
			_, err := submitRecord(p, rec)
			if err == nil {
				acked++
				break
			}
			if errors.Is(err, ErrBacklogFull) {
				time.Sleep(500 * time.Microsecond)
				continue
			}
			return acked, err
		}
	}
	return acked, nil
}

// refOver builds the uninterrupted-run oracle over recs[:m].
func refOver(t *testing.T, cfg Config, recs []Record, m int) *store.FootprintDB {
	t.Helper()
	db := &store.FootprintDB{Name: "ingest"}
	runRecords(t, cfg, db, recs[:m])
	return db
}

// encodeDB renders a database to its canonical bytes: the columnar
// snapshot a checkpoint writes, whose float columns carry every bit.
func encodeDB(t *testing.T, db *store.FootprintDB) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := db.Columnar(nil).EncodeTo(&b); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(db) // the snapshot aliases columns db may keep mapped
	return b.Bytes()
}

func TestFaultMatrix(t *testing.T) {
	stream := genStream(8, 600, 404)
	recs := withEdits(splitBatches(stream, 405), 406)

	// enospcBudget lands mid-record-13: twelve full records plus a few
	// bytes of the thirteenth.
	var enospcBudget int64 = 10
	for i := 0; i < 12 && i < len(recs); i++ {
		enospcBudget += recordSize(recs[i])
	}

	cases := []struct {
		name  string
		sched faultfs.Schedule
		// wantWALFault: the fault must seal the WAL mid-feed (as
		// opposed to striking the shutdown checkpoint).
		wantWALFault bool
	}{
		{"fail-nth-wal-write", faultfs.Schedule{FailWriteN: 10}, true},
		{"short-wal-write", faultfs.Schedule{ShortWriteN: 10}, true},
		{"wal-fsync-eio", faultfs.Schedule{FailSyncN: 10}, true},
		{"enospc-mid-record", faultfs.Schedule{ENOSPCAfter: enospcBudget}, true},
		{"torn-rename-during-checkpoint", faultfs.Schedule{FailRenameN: 1, TornRename: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t)
			fault := faultfs.NewFault(faultfs.OS, tc.sched)
			cfg.FS = fault

			db := &store.FootprintDB{Name: "ingest"}
			p, err := New(cfg, &DBSink{DB: db}, nil)
			if err != nil {
				t.Fatal(err)
			}
			acked, ferr := feedUntilError(t, p, recs)

			if tc.wantWALFault {
				if ferr == nil {
					t.Fatalf("fault never fired during feed (acked all %d records); fired=%v", acked, fault.Fired())
				}
				if p.WALErr() == nil {
					t.Fatal("WAL did not seal after the injected fault")
				}
				if !p.Stats().WALSealed {
					t.Fatal("Stats does not report the sealed WAL")
				}
				// Sealed means fail-fast read-only: the next batch is
				// refused with ErrSealed, not silently dropped.
				if _, err := p.Ingest(recs[0].Samples); !errors.Is(err, wal.ErrSealed) {
					t.Fatalf("ingest on sealed WAL: %v, want ErrSealed", err)
				}
			} else if ferr != nil {
				t.Fatalf("feed failed (%v) but this case faults only the checkpoint", ferr)
			}

			// Shutdown may fail (sealed WAL, failing snapshot); it must
			// not panic, and it must leave the durable artifacts for
			// recovery.
			_ = p.Close()
			if len(fault.Fired()) == 0 {
				t.Fatal("schedule never injected a fault")
			}

			// Recovery runs on a healthy filesystem — the operator
			// replaced the disk; the artifacts are what they are.
			clean := cfg
			clean.FS = faultfs.OS
			rec, err := Recover(clean)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}

			got := encodeDB(t, rec.DB)
			wantA := encodeDB(t, refOver(t, cfg, recs, acked))
			if bytes.Equal(got, wantA) {
				return
			}
			// A record that reached the file but whose ack was eaten
			// by a failed fsync may legitimately replay.
			if acked < len(recs) {
				wantA1 := encodeDB(t, refOver(t, cfg, recs, acked+1))
				if bytes.Equal(got, wantA1) {
					return
				}
			}
			t.Fatalf("recovered database matches neither ref(recs[:%d]) nor ref(recs[:%d]) — silent corruption", acked, acked+1)
		})
	}
}

// A sealed WAL still serves reads: Replay over the artifacts works
// while the pipeline is up, because sealing only forbids mutation.
func TestSealedWALStillReplayable(t *testing.T) {
	stream := genStream(4, 200, 411)
	batches := splitBatches(stream, 412)

	cfg := testConfig(t)
	fault := faultfs.NewFault(faultfs.OS, faultfs.Schedule{FailWriteN: 5})
	cfg.FS = fault
	db := &store.FootprintDB{Name: "ingest"}
	p, err := New(cfg, &DBSink{DB: db}, nil)
	if err != nil {
		t.Fatal(err)
	}
	acked, ferr := feedUntilError(t, p, asRecords(batches))
	if ferr == nil {
		t.Fatal("write fault never fired")
	}
	// The intact prefix is readable through the same faulty fs (reads
	// are not scheduled faults) even before Close.
	n, _, err := wal.ReplayFS(cfg.FS, cfg.WALPath, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != acked {
		t.Fatalf("replayed %d records from sealed WAL, want the %d acknowledged", n, acked)
	}
	_ = p.Close()
}
