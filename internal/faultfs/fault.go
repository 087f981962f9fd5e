package faultfs

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
)

// Injected sentinel causes. Schedules wrap the realistic errno
// (syscall.EIO, syscall.ENOSPC) so callers that inspect errors see
// what a real kernel would hand them, while tests can assert on the
// injection itself with errors.Is against these.
var (
	// ErrInjected marks every error a Fault filesystem produces.
	ErrInjected = errors.New("faultfs: injected fault")
)

// injectedError wraps an errno-style cause so errors.Is matches both
// ErrInjected and the underlying cause (EIO, ENOSPC).
type injectedError struct {
	op    string
	cause error
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("faultfs: injected %s fault: %v", e.op, e.cause)
}

func (e *injectedError) Unwrap() []error { return []error{ErrInjected, e.cause} }

// Schedule is one deterministic fault plan. Counters are 1-based and
// global across every file opened through the same Fault filesystem,
// so "the 3rd write" means the 3rd write the durability layer issues
// anywhere, which makes a schedule a reproducible coordinate in the
// crash matrix. Zero fields never fire.
type Schedule struct {
	// FailWriteN fails the Nth write with EIO after writing nothing.
	FailWriteN int
	// ShortWriteN tears the Nth write: only half the buffer (at least
	// one byte fewer) reaches the file, then EIO. This is the
	// mid-record crash a length-prefixed WAL must detect by CRC.
	ShortWriteN int
	// FailSyncN fails the Nth fsync (file or directory) with EIO. The
	// data may well be in the page cache — exactly the ambiguity that
	// makes fsync failure the hardest fault to handle honestly.
	FailSyncN int
	// ENOSPCAfter fails any write that would push the total bytes
	// written through this filesystem past the budget, with ENOSPC.
	// Bytes that fit still land (a torn record at the volume's edge).
	ENOSPCAfter int64
	// FailRenameN breaks the Nth rename with EIO. The destination is
	// left unchanged when it exists; on a filesystem whose rename is
	// not atomic the destination may instead be lost — TornRename
	// selects that harsher model.
	FailRenameN int
	// TornRename makes FailRenameN also unlink the destination before
	// failing: the non-atomic rename-by-copy worst case. Recovery must
	// then live off the WAL alone.
	TornRename bool
}

// Fault wraps an inner filesystem (usually OS) and injects the faults
// of its Schedule at deterministic operation counts. Safe for
// concurrent use; counters are ordered by the internal lock.
type Fault struct {
	inner FS
	sched Schedule

	mu      sync.Mutex
	writes  int   // writes attempted
	syncs   int   // fsyncs attempted
	renames int   // renames attempted
	written int64 // bytes accepted so far
	fired   []string
}

// NewFault returns a fault-injecting filesystem over inner.
//
//lint:ignore testonly fault injection: the crash and fault-matrix suites build their filesystems with it
func NewFault(inner FS, sched Schedule) *Fault {
	return &Fault{inner: inner, sched: sched}
}

// Fired reports, in order, the faults that have fired — the test
// oracle that a schedule actually exercised what it meant to.
//
//lint:ignore testonly fault injection: the suites check a schedule fired what it meant to
func (f *Fault) Fired() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.fired))
	copy(out, f.fired)
	return out
}

// Counts reports the operations attempted so far (writes, syncs,
// renames) — used to calibrate schedules against a workload.
//
//lint:ignore testonly fault injection: the suites calibrate schedules against a workload with it
func (f *Fault) Counts() (writes, syncs, renames int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.syncs, f.renames
}

func (f *Fault) record(what string) {
	f.fired = append(f.fired, what)
}

// admitWrite decides the fate of one write of n bytes under the
// schedule: how many bytes to pass through and which error to return.
func (f *Fault) admitWrite(n int) (allow int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.sched.FailWriteN > 0 && f.writes == f.sched.FailWriteN {
		f.record("write-fail")
		return 0, &injectedError{op: "write", cause: syscall.EIO}
	}
	if f.sched.ShortWriteN > 0 && f.writes == f.sched.ShortWriteN {
		f.record("write-short")
		short := n / 2
		if short >= n && n > 0 {
			short = n - 1
		}
		f.written += int64(short)
		return short, &injectedError{op: "short write", cause: syscall.EIO}
	}
	if f.sched.ENOSPCAfter > 0 && f.written+int64(n) > f.sched.ENOSPCAfter {
		fit := f.sched.ENOSPCAfter - f.written
		if fit < 0 {
			fit = 0
		}
		f.record("write-enospc")
		f.written += fit
		return int(fit), &injectedError{op: "write", cause: syscall.ENOSPC}
	}
	f.written += int64(n)
	return n, nil
}

func (f *Fault) admitSync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.sched.FailSyncN > 0 && f.syncs == f.sched.FailSyncN {
		f.record("sync-fail")
		return &injectedError{op: "fsync", cause: syscall.EIO}
	}
	return nil
}

func (f *Fault) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *Fault) Open(name string) (File, error) {
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *Fault) CreateTemp(dir, pattern string) (File, error) {
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *Fault) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.renames++
	fire := f.sched.FailRenameN > 0 && f.renames == f.sched.FailRenameN
	torn := fire && f.sched.TornRename
	if fire {
		if torn {
			f.record("rename-torn")
		} else {
			f.record("rename-fail")
		}
	}
	f.mu.Unlock()
	if fire {
		if torn {
			// Non-atomic rename-by-copy worst case: the destination is
			// gone and the new content never arrived.
			_ = f.inner.Remove(newpath) // destination may not exist; the injected error below is the signal
		}
		return &injectedError{op: "rename", cause: syscall.EIO}
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Fault) Remove(name string) error { return f.inner.Remove(name) }

// faultFile routes writes and syncs through the schedule. Reads,
// seeks, stats and closes pass through untouched: the fault model
// covers the mutation plane (what can corrupt state), not the read
// plane.
type faultFile struct {
	File
	fs *Fault
}

func (f *faultFile) Write(p []byte) (int, error) {
	allow, ierr := f.fs.admitWrite(len(p))
	if allow > len(p) {
		allow = len(p)
	}
	var n int
	var err error
	if allow > 0 {
		n, err = f.File.Write(p[:allow])
	}
	if ierr != nil {
		return n, ierr
	}
	if err != nil {
		return n, err
	}
	if n < len(p) {
		return n, &injectedError{op: "write", cause: syscall.EIO}
	}
	return n, nil
}

func (f *faultFile) Sync() error {
	if err := f.fs.admitSync(); err != nil {
		return err
	}
	return f.File.Sync()
}
