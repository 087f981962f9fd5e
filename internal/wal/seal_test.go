package wal

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"geofootprint/internal/faultfs"
)

// sealSetup opens a log on a fault-injecting filesystem.
func sealSetup(t *testing.T, sched faultfs.Schedule, opts Options) (*Log, *faultfs.Fault, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seal.wal")
	fs := faultfs.NewFault(faultfs.OS, sched)
	l, err := OpenFS(fs, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, fs, path
}

// A failed append seals the log: the record is not acknowledged, Err
// reports the cause, and every later mutation fails fast with
// ErrSealed instead of appending past a possibly-torn tail.
func TestAppendErrorSealsLog(t *testing.T) {
	l, _, path := sealSetup(t, faultfs.Schedule{FailWriteN: 2}, Options{Policy: SyncNone})
	defer l.Close()

	if _, err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("two")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("faulted append: %v, want EIO", err)
	}
	if l.Err() == nil {
		t.Fatal("log did not seal after append error")
	}
	if _, err := l.Append([]byte("three")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append on sealed log: %v, want ErrSealed", err)
	}
	if err := l.Reset(); !errors.Is(err, ErrSealed) {
		t.Fatalf("reset on sealed log: %v, want ErrSealed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrSealed) {
		t.Fatalf("sync on sealed log: %v, want ErrSealed", err)
	}

	// The intact prefix is untouched: reopening on a clean filesystem
	// recovers exactly the acknowledged record.
	if err := l.Close(); !errors.Is(err, ErrSealed) {
		t.Fatalf("close of sealed log: %v, want the seal surfaced", err)
	}
	var got [][]byte
	n, _, err := Replay(path, func(rec Record) error {
		got = append(got, append([]byte(nil), rec.Payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || string(got[0]) != "one" {
		t.Fatalf("replayed %d records %q, want exactly the acknowledged one", n, got)
	}
}

// A short write leaves a torn record; the seal prevents the next
// append from landing after the damage, and the reopened log truncates
// the tear back to the acknowledged prefix.
func TestShortWriteSealsAndRecovers(t *testing.T) {
	l, _, path := sealSetup(t, faultfs.Schedule{ShortWriteN: 3}, Options{Policy: SyncNone})
	defer l.Close()

	for i := 0; i < 2; i++ {
		if _, err := l.Append([]byte("intact")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Append([]byte("torn-record-payload")); !errors.Is(err, syscall.EIO) {
		t.Fatal("short write did not error")
	}
	if l.Err() == nil {
		t.Fatal("log did not seal after short write")
	}
	_ = l.Close()

	l2, err := Open(path, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != 2*(16+6) {
		t.Fatalf("reopened size %d, want the two intact records", l2.Size())
	}
	if got := l2.NextLSN(); got != 3 {
		t.Fatalf("next LSN %d, want 3 (two acknowledged records)", got)
	}
}

// An fsync error under SyncEveryAppend seals the log even though the
// bytes reached the file: durability is unknown, so nothing further
// may be acknowledged.
func TestFsyncErrorSealsLog(t *testing.T) {
	// Sync #1 is the first Append's fsync.
	l, _, _ := sealSetup(t, faultfs.Schedule{FailSyncN: 1}, Options{Policy: SyncEveryAppend})
	defer l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append under failing fsync: %v, want EIO", err)
	}
	if l.Err() == nil {
		t.Fatal("log did not seal on fsync error")
	}
}

// A background interval-sync failure surfaces through Err() while the
// log is idle — the satellite fix: an idle-but-broken WAL must be
// visible without another Append poking it.
func TestBackgroundSyncErrorVisibleWhileIdle(t *testing.T) {
	l, _, _ := sealSetup(t, faultfs.Schedule{FailSyncN: 1},
		Options{Policy: SyncInterval, Interval: time.Millisecond})
	defer l.Close()
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background fsync error never surfaced via Err()")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(l.Err(), syscall.EIO) {
		t.Fatalf("Err() = %v, want the injected EIO", l.Err())
	}
	if _, err := l.Append([]byte("y")); !errors.Is(err, ErrSealed) {
		t.Fatalf("append after background seal: %v, want ErrSealed", err)
	}
}

// ENOSPC mid-record seals; recovery trusts the intact prefix.
func TestENOSPCSealsAndPrefixSurvives(t *testing.T) {
	rec := []byte("0123456789") // 16 header + 10 payload = 26 bytes/record
	l, _, path := sealSetup(t, faultfs.Schedule{ENOSPCAfter: 26*2 + 10}, Options{Policy: SyncNone})
	defer l.Close()
	var acked int
	for i := 0; i < 4; i++ {
		if _, err := l.Append(rec); err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append %d: %v, want ENOSPC", i, err)
			}
			break
		}
		acked++
	}
	if acked != 2 {
		t.Fatalf("acknowledged %d records, want 2 before the volume filled", acked)
	}
	if l.Err() == nil {
		t.Fatal("log did not seal on ENOSPC")
	}
	_ = l.Close()
	n, damaged, err := Replay(path, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != acked {
		t.Fatalf("replayed %d, want the %d acknowledged", n, acked)
	}
	if !damaged {
		t.Fatal("torn ENOSPC tail not reported as damaged")
	}
}
