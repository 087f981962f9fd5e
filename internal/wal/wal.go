// Package wal implements the write-ahead log that makes streaming
// ingestion durable: a single append-only file of length-prefixed,
// CRC-checked records, each carrying a monotonically increasing log
// sequence number (LSN).
//
// On-disk record layout (little endian):
//
//	offset  size  field
//	0       4     payload length n
//	4       8     LSN
//	12      4     CRC-32C over (LSN bytes ‖ payload)
//	16      n     payload
//
// The CRC covers the LSN so a record can never be replayed under a
// sequence number it was not written with. A crash can leave a torn
// tail — a partially written record, or garbage after the last
// complete one. Open detects this (short header, short payload, or CRC
// mismatch), truncates the file back to the last valid record, and
// appends from there; Replay applied to an un-repaired file simply
// stops at the first invalid record. Everything before a torn tail is
// trusted: corruption is assumed to happen only at the end of the file
// (the append-only write pattern), which is the standard WAL contract.
//
// # Sealing
//
// The log SEALS on the first write, fsync, or truncate error: it
// becomes fail-fast read-only. The rationale is the torn-tail
// contract itself — after a failed or short append the file may end in
// a partial record, and appending anything after it would strand every
// later record behind the damage (scan stops at the first invalid
// record), silently losing acknowledged data. A failed fsync is just
// as terminal: the kernel may have dropped the dirty pages, so the
// log's clean prefix is no longer known, and retrying the fsync would
// report success without making the lost pages durable. Sealed state
// is permanent for the handle; Err reports the sealing cause (also for
// errors raised by the background interval-sync goroutine, so an
// idle-but-broken log is visible without another Append), and the
// serving layer surfaces it in /healthz and /v1/ingest/stats. Recovery
// is a restart: reopen the path, which repairs the tail and trusts the
// intact prefix.
//
// All file I/O goes through a faultfs.FS, so the crash-matrix tests
// can drive every one of these paths with deterministic fault
// schedules; production callers use the OS passthrough.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"geofootprint/internal/faultfs"
)

// headerSize is the fixed per-record overhead.
const headerSize = 4 + 8 + 4

// MaxRecordSize bounds a single payload; a length prefix beyond it is
// treated as tail corruption rather than an attempt to allocate it.
const MaxRecordSize = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appended records are forced to stable
// storage.
type SyncPolicy int

const (
	// SyncEveryAppend fsyncs after every Append: an acknowledged
	// record survives any crash. The slowest, safest policy.
	SyncEveryAppend SyncPolicy = iota
	// SyncInterval fsyncs from a background timer: at most
	// Options.Interval worth of acknowledged records can be lost.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS decides. A crash of
	// the process alone loses nothing (writes are in the page
	// cache), a machine crash loses what the kernel had not flushed.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEveryAppend:
		return "batch"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParsePolicy maps the CLI spelling to a policy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch", "always":
		return SyncEveryAppend, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf(`wal: unknown sync policy %q (want "batch", "interval" or "none")`, s)
	}
}

// Options configures Open.
type Options struct {
	Policy SyncPolicy
	// Interval is the background fsync period for SyncInterval
	// (default 100ms when zero).
	Interval time.Duration
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	mu      sync.Mutex
	f       faultfs.File
	path    string
	opts    Options
	nextLSN uint64
	size    int64 // current valid file size
	closed  bool

	stopSync chan struct{} // closes the interval-sync goroutine
	syncDone chan struct{}
	sealErr  error // first I/O error; the log is read-only once set
}

// Open opens (creating if absent) the log at path through the OS
// filesystem. See OpenFS.
func Open(path string, opts Options) (*Log, error) {
	return OpenFS(faultfs.OS, path, opts)
}

// OpenFS opens (creating if absent) the log at path on fsys, scans it
// to find the end of the valid record sequence, truncates any torn
// tail, and positions appends after the last valid record. The
// returned log's next LSN is one past the highest LSN on disk (or 1
// for an empty log).
func OpenFS(fsys faultfs.FS, path string, opts Options) (*Log, error) {
	if opts.Policy == SyncInterval && opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	lastLSN, validSize, _, err := scan(f, nil)
	if err != nil {
		_ = f.Close() // the scan error is the one worth surfacing
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > validSize {
		// Torn or corrupt tail: drop it so the next append starts a
		// clean record boundary.
		if err := f.Truncate(validSize); err != nil {
			_ = f.Close() // the truncate error is the one worth surfacing
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() // the sync error is the one worth surfacing
			return nil, err
		}
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		_ = f.Close() // the seek error is the one worth surfacing
		return nil, err
	}
	l := &Log{f: f, path: path, opts: opts, nextLSN: lastLSN + 1, size: validSize}
	if opts.Policy == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.sealErr == nil {
				if err := l.f.Sync(); err != nil {
					// Seal immediately: an idle-but-broken log must be
					// visible through Err() without waiting for the
					// next Append to trip over it.
					l.sealLocked(fmt.Errorf("wal: background fsync: %w", err))
				}
			}
			l.mu.Unlock()
		case <-l.stopSync:
			return
		}
	}
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrSealed marks every error returned by a log that sealed after an
// I/O fault; errors.Is(err, ErrSealed) identifies them. The sealing
// cause is available via Err and wrapped into the returned error.
var ErrSealed = errors.New("wal: log sealed after I/O error")

// sealLocked marks the log permanently read-only with the given cause.
// Callers hold l.mu. Only the first cause is kept.
func (l *Log) sealLocked(cause error) {
	if l.sealErr == nil {
		l.sealErr = cause
	}
}

// Err reports the error that sealed the log, or nil while it is
// healthy. Unlike the pre-seal design, a background fsync failure is
// visible here immediately, not only on the next Append.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealErr
}

// sealedErrLocked builds the fail-fast error for mutating calls on a
// sealed log. Callers hold l.mu.
func (l *Log) sealedErrLocked() error {
	return fmt.Errorf("%w: %w", ErrSealed, l.sealErr)
}

// Append writes one record and returns its LSN. Under SyncEveryAppend
// the record is on stable storage when Append returns; under the other
// policies it is in the OS page cache. Any write or fsync error seals
// the log: the failed record is not acknowledged, and every later
// Append fails fast with ErrSealed — appending past a possibly-torn
// tail would strand all later records behind the damage.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("wal: payload of %d bytes exceeds MaxRecordSize", len(payload))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.sealErr != nil {
		return 0, l.sealedErrLocked()
	}
	lsn := l.nextLSN
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[4:12], lsn)
	crc := crc32.Update(crc32.Checksum(buf[4:12], castagnoli), castagnoli, payload)
	binary.LittleEndian.PutUint32(buf[12:16], crc)
	copy(buf[headerSize:], payload)
	if _, err := l.f.Write(buf); err != nil {
		err = fmt.Errorf("wal: append: %w", err)
		l.sealLocked(err)
		return 0, err
	}
	l.size += int64(len(buf))
	l.nextLSN++
	if l.opts.Policy == SyncEveryAppend {
		if err := l.f.Sync(); err != nil {
			err = fmt.Errorf("wal: fsync: %w", err)
			l.sealLocked(err)
			return 0, err
		}
	}
	return lsn, nil
}

// Sync forces everything appended so far to stable storage. An fsync
// error seals the log.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.sealErr != nil {
		return l.sealedErrLocked()
	}
	if err := l.f.Sync(); err != nil {
		l.sealLocked(err)
		return err
	}
	return nil
}

// NextLSN returns the LSN the next Append will be assigned.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// AdvanceLSN raises the next LSN to at least lsn. Recovery calls it
// with one past the snapshot's sequence number: after a snapshot that
// made the whole log obsolete (and a Reset before the crash), the file
// alone no longer witnesses how far the sequence got, so the snapshot
// supplies the floor. It never lowers the sequence.
func (l *Log) AdvanceLSN(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn > l.nextLSN {
		l.nextLSN = lsn
	}
}

// Size returns the current file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Reset discards every record (after a snapshot has made them
// obsolete) while keeping the LSN sequence monotone: the next Append
// continues from the pre-reset sequence, so a stale record that
// somehow survives can never alias a post-reset one. A sealed log
// refuses to reset — its contents are the only recovery evidence left.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.sealErr != nil {
		return l.sealedErrLocked()
	}
	if err := l.f.Truncate(0); err != nil {
		err = fmt.Errorf("wal: reset: %w", err)
		l.sealLocked(err)
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		l.sealLocked(err)
		return err
	}
	l.size = 0
	if err := l.f.Sync(); err != nil {
		l.sealLocked(err)
		return err
	}
	return nil
}

// Close syncs and closes the log. A sealed log skips the final sync
// (it cannot promise durability anyway) and returns its sealing cause.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var syncErr error
	if l.sealErr != nil {
		syncErr = l.sealedErrLocked()
	} else if err := l.f.Sync(); err != nil {
		l.sealLocked(err)
		syncErr = err
	}
	closeErr := l.f.Close()
	stop := l.stopSync
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Record is one replayed WAL entry.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Replay reads the log at path through the OS filesystem. See
// ReplayFS.
func Replay(path string, fn func(rec Record) error) (n int, damaged bool, err error) {
	return ReplayFS(faultfs.OS, path, fn)
}

// ReplayFS reads the log at path on fsys from the beginning, calling
// fn for each valid record in order. Payload is only valid for the
// duration of the call. It stops cleanly at the first torn or corrupt
// record (the crash-recovery contract) and returns the number of valid
// records together with whether a damaged tail was skipped. A missing
// file replays zero records.
func ReplayFS(fsys faultfs.FS, path string, fn func(rec Record) error) (n int, damaged bool, err error) {
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	//lint:ignore errdiscard read-only replay handle; a Close error after a complete scan carries no data-loss signal
	defer f.Close()
	_, validSize, n, err := scan(f, fn)
	if err != nil {
		return n, false, err
	}
	fi, statErr := f.Stat()
	if statErr != nil {
		return n, false, statErr
	}
	return n, fi.Size() > validSize, nil
}

// scan walks the record sequence from the current start of f, calling
// fn (when non-nil) per valid record, and returns the last LSN seen,
// the byte offset one past the last valid record, and the record
// count. Damage — short header, short payload, absurd length, CRC
// mismatch — ends the scan without error. A length longer than what
// is left of the file is a torn tail, found before its payload buffer
// is allocated.
func scan(f faultfs.File, fn func(rec Record) error) (lastLSN uint64, validSize int64, n int, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, err
	}
	// The bufio layer turns the two small reads per record (header +
	// payload) into large sequential file reads; countingReader sits
	// above it so validSize counts bytes consumed by the scan, not
	// bytes the buffer read ahead.
	r := &countingReader{r: bufio.NewReaderSize(f, 1<<20)}
	hdr := make([]byte, headerSize)
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return lastLSN, validSize, n, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		lsn := binary.LittleEndian.Uint64(hdr[4:12])
		want := binary.LittleEndian.Uint32(hdr[12:16])
		if length > MaxRecordSize || int64(length) > fi.Size()-r.n {
			return lastLSN, validSize, n, nil // corrupt length prefix or torn payload
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return lastLSN, validSize, n, nil // torn payload
		}
		got := crc32.Update(crc32.Checksum(hdr[4:12], castagnoli), castagnoli, payload)
		if got != want {
			return lastLSN, validSize, n, nil // bit rot / torn overwrite
		}
		if fn != nil {
			if err := fn(Record{LSN: lsn, Payload: payload}); err != nil {
				return lastLSN, validSize, n, err
			}
		}
		lastLSN = lsn
		validSize = r.n
		n++
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
