package ingest

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"geofootprint/internal/engine"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// gatedSink wraps a Sink and parks the apply goroutine inside its
// first ApplyBatch until the gate is released — the stand-in for a
// crash (acknowledged work not yet applied) or a stalled consumer in
// the fault-injection tests below.
type gatedSink struct {
	inner   Sink
	entered chan struct{} // closed when the first ApplyBatch arrives
	gate    chan struct{} // close to release the parked goroutine
	once    sync.Once
}

func newGatedSink(inner Sink) *gatedSink {
	return &gatedSink{inner: inner, entered: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gatedSink) ApplyBatch(updates []UserRoIs) {
	g.once.Do(func() {
		close(g.entered)
		<-g.gate
	})
	g.inner.ApplyBatch(updates)
}

func (g *gatedSink) WithDB(fn func(db *store.FootprintDB)) { g.inner.WithDB(fn) }

func (g *gatedSink) awaitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("apply goroutine never reached the sink; stream emitted no RoIs")
	}
}

// walRecordSize is the on-disk footprint of one sample batch: the WAL
// header plus the EncodeBatch payload.
func walRecordSize(batch []Sample) int64 {
	return 16 + 4 + int64(len(batch))*sampleWireSize
}

// recordSize is the on-disk footprint of any record.
func recordSize(rec Record) int64 {
	return 16 + int64(len(appendRecord(nil, rec)))
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Kill mid-batch: the apply goroutine is parked inside the sink (the
// database has absorbed nothing) while every batch has been
// acknowledged. Recovery from the WAL alone must rebuild the database
// an uninterrupted run would have produced — acknowledged means
// durable, regardless of how far application got.
func TestCrashMidApplyRecoversAcknowledged(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 512
	batches := splitBatches(genStream(10, 2000, 11), 12)

	gated := newGatedSink(&DBSink{DB: &store.FootprintDB{Name: "ingest"}})
	p, err := New(cfg, gated, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gated.gate)
		p.Close()
	}()
	ingestAll(t, p, batches)
	gated.awaitEntered(t)

	// Crash now: recover from the on-disk state while the pipeline is
	// parked, exactly as a restarted process would.
	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Damaged {
		t.Fatal("clean WAL reported damaged")
	}
	if rec.Replayed != len(batches) {
		t.Fatalf("replayed %d of %d acknowledged batches", rec.Replayed, len(batches))
	}
	want := &store.FootprintDB{Name: "ingest"}
	runReference(t, cfg, want, batches)
	mustMatch(t, rec.DB, want)
}

// tornTailSetup runs a full ingest without ever closing (a crash), then
// hands back a copy of the WAL in a fresh directory for mutilation,
// along with the batch list.
func tornTailSetup(t *testing.T) (cfg2 Config, batches [][]Sample) {
	t.Helper()
	cfg := testConfig(t)
	batches = splitBatches(genStream(12, 3000, 21), 22)
	if len(batches) < 2 {
		t.Fatal("need at least two batches")
	}
	p, err := New(cfg, &DBSink{DB: &store.FootprintDB{Name: "ingest"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, p, batches)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg2 = cfg
	cfg2.WALPath = filepath.Join(dir, "ingest.wal")
	cfg2.SnapshotPath = filepath.Join(dir, "ingest.snap")
	copyFile(t, cfg.WALPath, cfg2.WALPath)
	p.Close()

	var total int64
	for _, b := range batches {
		total += walRecordSize(b)
	}
	if fi, err := os.Stat(cfg2.WALPath); err != nil || fi.Size() != total {
		t.Fatalf("WAL size %v (err %v), want %d", fi.Size(), err, total)
	}
	return cfg2, batches
}

// lastRecordStart returns the offset of the final WAL record.
func lastRecordStart(batches [][]Sample) int64 {
	var off int64
	for _, b := range batches[:len(batches)-1] {
		off += walRecordSize(b)
	}
	return off
}

// recoverTailLoss asserts the post-mutilation contract shared by the
// torn-tail and corrupt-tail tests: recovery flags damage, applies
// exactly the intact prefix, and a restarted pipeline over the
// recovered state — with the client retrying the unacknowledged tail
// batch — converges to the uninterrupted-run database byte for byte.
func recoverTailLoss(t *testing.T, cfg Config, batches [][]Sample) {
	t.Helper()
	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Damaged {
		t.Fatal("mutilated WAL tail not reported as damaged")
	}
	if rec.Replayed != len(batches)-1 {
		t.Fatalf("replayed %d, want the %d intact records", rec.Replayed, len(batches)-1)
	}
	want := &store.FootprintDB{Name: "ingest"}
	runReference(t, cfg, want, batches[:len(batches)-1])
	mustMatch(t, rec.DB, want)

	// The client never got an ack for the lost batch and retries it
	// against the restarted pipeline (wal.Open repairs the tail).
	p, err := New(cfg, &DBSink{DB: rec.DB, Weighting: cfg.Weighting}, rec.State)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, p, batches[len(batches)-1:])
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := &store.FootprintDB{Name: "ingest"}
	runReference(t, cfg, full, batches)
	mustMatch(t, final.DB, full)
}

// A crash can tear the last WAL record mid-write. Recovery must apply
// every intact record, report the damage, and continue exactly once
// the client retries the lost batch.
func TestTornWALTailRecovery(t *testing.T) {
	cfg, batches := tornTailSetup(t)
	last := lastRecordStart(batches)
	cut := last + walRecordSize(batches[len(batches)-1])/2
	if err := os.Truncate(cfg.WALPath, cut); err != nil {
		t.Fatal(err)
	}
	recoverTailLoss(t, cfg, batches)
}

// A bad sector can corrupt bytes inside the last record without
// shortening the file; the CRC must catch it and recovery must behave
// exactly as for a torn tail.
func TestCorruptWALTailRecovery(t *testing.T) {
	cfg, batches := tornTailSetup(t)
	f, err := os.OpenFile(cfg.WALPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte a few bytes into the last record's payload.
	if _, err := f.WriteAt([]byte{0xff}, lastRecordStart(batches)+18); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recoverTailLoss(t, cfg, batches)
}

// Crash after a mid-stream checkpoint: the snapshot covers the prefix,
// the WAL holds only the tail, and recovery = snapshot + tail replay
// must equal the uninterrupted run.
func TestCrashAfterCheckpointReplaysTail(t *testing.T) {
	cfg := testConfig(t)
	batches := splitBatches(genStream(12, 4000, 31), 32)
	half := len(batches) / 2

	p, err := New(cfg, &DBSink{DB: &store.FootprintDB{Name: "ingest"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ingestAll(t, p, batches[:half])
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	p.TriggerSnapshot()
	// The request fires after the next applied batch; the second half
	// then acts as a barrier: once its batches are applied, the
	// checkpoint (same goroutine) has completed.
	ingestAll(t, p, batches[half:])
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Snapshots; got != 1 {
		t.Fatalf("snapshots = %d, want exactly the triggered one", got)
	}

	// Crash (no Close): recover from snapshot + WAL tail.
	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Damaged {
		t.Fatal("clean WAL reported damaged")
	}
	if rec.Replayed == 0 || rec.Replayed >= len(batches) {
		t.Fatalf("replayed %d of %d: snapshot did not truncate the prefix", rec.Replayed, len(batches))
	}
	want := &store.FootprintDB{Name: "ingest"}
	runReference(t, cfg, want, batches)
	mustMatch(t, rec.DB, want)
}

// Backpressure: with the apply goroutine stalled and the queue full,
// Ingest must reject with ErrBacklogFull BEFORE touching the WAL — a
// batch the client is told to retry must never resurface in recovery.
func TestBackpressureRejectsBeforeWAL(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 1

	// A batch guaranteed to emit an RoI (τ=4 dwell, then a gap sample
	// that flushes the session), so ApplyBatch is reached and parks.
	emitting := []Sample{
		{User: 1, X: 0.5, Y: 0.5, T: 1},
		{User: 1, X: 0.5, Y: 0.5, T: 2},
		{User: 1, X: 0.5, Y: 0.5, T: 3},
		{User: 1, X: 0.5, Y: 0.5, T: 4},
		{User: 1, X: 0.5, Y: 0.5, T: 5},
		{User: 1, X: 0.9, Y: 0.9, T: 100},
	}
	queued := []Sample{{User: 2, X: 0.2, Y: 0.2, T: 1}}
	rejected := []Sample{{User: 3, X: 0.3, Y: 0.3, T: 1}}

	gated := newGatedSink(&DBSink{DB: &store.FootprintDB{Name: "ingest"}})
	p, err := New(cfg, gated, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ingest(emitting); err != nil {
		t.Fatal(err)
	}
	gated.awaitEntered(t) // apply goroutine parked; queue empty again
	if _, err := p.Ingest(queued); err != nil {
		t.Fatal(err) // fills the depth-1 queue
	}
	sizeBefore := p.Stats().WALBytes
	if _, err := p.Ingest(rejected); err != ErrBacklogFull {
		t.Fatalf("full queue returned %v, want ErrBacklogFull", err)
	}
	st := p.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	if st.WALBytes != sizeBefore {
		t.Fatalf("rejected batch grew the WAL: %d -> %d bytes", sizeBefore, st.WALBytes)
	}

	close(gated.gate)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &store.FootprintDB{Name: "ingest"}
	runReference(t, cfg, want, [][]Sample{emitting, queued})
	mustMatch(t, rec.DB, want)
	for _, s := range rec.State.Sessions {
		if s.User == 3 {
			t.Fatal("rejected batch resurfaced in recovered state")
		}
	}
}

// After crash recovery, the database must serve exact top-k: every
// query method agrees with a linear scan over the recovered footprints
// — bit-for-bit for the kernel-sharing methods (user-centric, sketch),
// within the established 1e-9 near-tie tolerance for the
// traversal-order accumulators (iterative, batch).
func TestRecoveredTopKMatchesLinearScan(t *testing.T) {
	cfg := testConfig(t)
	batches := splitBatches(genStream(25, 8000, 41), 42)

	p, err := New(cfg, &DBSink{DB: &store.FootprintDB{Name: "ingest"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ingestAll(t, p, batches)
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}

	// Crash (no Close) and recover.
	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := rec.DB
	if db.Len() < 10 {
		t.Fatalf("recovered database has only %d users; stream too thin", db.Len())
	}
	lin := search.NewLinearScan(db)
	if !db.SketchesEnabled() {
		db.EnableSketches(0, 0) // the name "sketch" insists on the layer
	}
	v := engine.NewView(db, 4)
	const k = 8
	for qi := 0; qi < db.Len(); qi += 3 {
		q := db.Row(qi)
		want := lin.TopK(q, k)
		for _, name := range []string{"linear", "iterative", "batch", "user-centric", "sketch"} {
			e, err := v.Engine(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.TopK(q, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d, %s: diverged from linear scan\ngot:  %v\nwant: %v", qi, name, got, want)
			}
		}
	}
}

// SIGTERM mid-batch: shutdown arrives while the apply goroutine is
// parked inside the sink and the queue holds acknowledged work. Close
// must finish applying every acknowledged batch, checkpoint, and reset
// the WAL — so the next start replays nothing and serves exactly the
// database an uninterrupted run would have produced. New ingests
// arriving during the shutdown are rejected with ErrClosed, never
// half-accepted.
func TestCrashlessShutdownDuringIngest(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 512
	batches := splitBatches(genStream(10, 2000, 51), 52)

	gated := newGatedSink(&DBSink{DB: &store.FootprintDB{Name: "ingest"}})
	p, err := New(cfg, gated, nil)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, p, batches)
	gated.awaitEntered(t) // apply goroutine parked mid-first-batch

	// The signal handler calls Close while application is in flight.
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()

	// A client racing the shutdown gets a clean reject: by the time
	// Ingest can take the pipeline lock, closed is already set.
	for {
		if _, err := p.Ingest(batches[0]); err == ErrClosed {
			break
		} else if err != nil {
			t.Fatalf("ingest during shutdown: %v, want ErrClosed", err)
		}
		// Close has not taken the lock yet; the batch was legitimately
		// acknowledged and will be covered by the checkpoint below.
		batches = append(batches, batches[0])
	}

	close(gated.gate) // the parked batch finishes; drain proceeds
	if err := <-closed; err != nil {
		t.Fatalf("close during ingest: %v", err)
	}

	rec, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Damaged {
		t.Fatal("clean shutdown left a damaged WAL")
	}
	if rec.Replayed != 0 {
		t.Fatalf("replayed %d records after a clean shutdown; Close did not checkpoint", rec.Replayed)
	}
	want := &store.FootprintDB{Name: "ingest"}
	runReference(t, cfg, want, batches)
	mustMatch(t, rec.DB, want)
}
