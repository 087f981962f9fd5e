package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/store"
	"geofootprint/internal/wal"
)

// Config parameterises the ingestion pipeline.
type Config struct {
	// WALPath is the write-ahead log file (required).
	WALPath string
	// SnapshotPath is the snapshot file (required); written atomically
	// on every checkpoint.
	SnapshotPath string
	// Name labels a database created from scratch (default "ingest").
	Name string
	// Extract holds the Algorithm 1 parameters (zero value is invalid;
	// DefaultExtract gives the paper's ε=0.02, τ=30).
	Extract extract.Config
	// SessionGap ends a user's session when the next sample arrives
	// more than this many seconds after the previous one (default 60).
	SessionGap float64
	// Weighting converts finished RoIs to footprint regions.
	Weighting core.Weighting
	// QueueDepth bounds the apply queue in batches; a full queue
	// rejects Ingest with ErrBacklogFull (default 256).
	QueueDepth int
	// MaxBatch bounds one Ingest call in samples (default 10000).
	MaxBatch int
	// Sync selects the WAL durability policy; SyncInterval uses
	// SyncInterval as the period.
	Sync         wal.SyncPolicy
	SyncInterval time.Duration
	// SnapshotEvery checkpoints after this many applied WAL records
	// (0 = only on Close and explicit TriggerSnapshot).
	SnapshotEvery int
	// FS is the filesystem every durable write and read goes through
	// (nil selects the real OS). The crash-matrix tests install a
	// faultfs.Fault here to exercise ENOSPC, EIO, short writes and
	// torn renames deterministically.
	FS faultfs.FS
	// AllowCorruptSnapshot lets Recover tolerate a snapshot that fails
	// its integrity checks (store.ErrCorruptSnapshot): instead of
	// refusing to start, recovery rebuilds from the WAL alone and
	// reports the error in RecoverResult.SnapshotErr. Data checkpointed
	// before the corruption is lost; off by default so damage is loud.
	AllowCorruptSnapshot bool
}

// DefaultExtract is the paper's extraction configuration.
func DefaultExtract() extract.Config { return extract.Config{Epsilon: 0.02, Tau: 30} }

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "ingest"
	}
	if c.SessionGap <= 0 {
		c.SessionGap = 60
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 10000
	}
	if c.FS == nil {
		c.FS = faultfs.OS
	}
	return c
}

func (c Config) validate() error {
	if c.WALPath == "" || c.SnapshotPath == "" {
		return errors.New("ingest: Config needs WALPath and SnapshotPath")
	}
	return c.Extract.Validate()
}

// Sink receives the pipeline's output. ApplyBatch is called from the
// single apply goroutine with the RoIs finished during one group of
// consecutive WAL records (one record on an idle pipeline, everything
// that queued up behind it on a busy one), per user in first-emission
// order; implementations serialise it against their own readers (the
// HTTP server holds its write lock). WithDB exposes the database
// quiesced — no ApplyBatch runs during fn — for checkpointing.
type Sink interface {
	ApplyBatch(updates []UserRoIs)
	WithDB(fn func(db *store.FootprintDB))
}

// DBSink is the plain Sink over a bare FootprintDB: it converts RoIs
// under a weighting and appends them. It is what recovery replays
// into, and what embedders without an HTTP server use.
type DBSink struct {
	DB        *store.FootprintDB
	Weighting core.Weighting
}

func (s *DBSink) ApplyBatch(updates []UserRoIs) {
	for _, u := range updates {
		s.DB.AppendRoIs(u.User, core.FromRoIs(u.RoIs, s.Weighting))
	}
}

func (s *DBSink) WithDB(fn func(db *store.FootprintDB)) { fn(s.DB) }

// ErrBacklogFull is returned by Ingest when the apply queue is full:
// the caller should back off and retry (the HTTP layer maps it to
// 429 + Retry-After). The rejected batch was NOT written to the WAL —
// rejection happens before the append, so a rejected batch can never
// resurface during recovery.
var ErrBacklogFull = errors.New("ingest: apply queue full, retry later")

// ErrClosed is returned by Ingest after Close.
var ErrClosed = errors.New("ingest: pipeline closed")

var errCorruptState = errors.New("ingest: snapshot state has unapplied RoIs")

// Stats is a point-in-time snapshot of the pipeline counters.
type Stats struct {
	Samples   uint64 `json:"samples"`   // samples accepted
	Batches   uint64 `json:"batches"`   // WAL records appended
	Rejected  uint64 `json:"rejected"`  // batches refused by backpressure
	Appended  uint64 `json:"appended"`  // last appended LSN
	Applied   uint64 `json:"applied"`   // last applied LSN
	RoIs      uint64 `json:"rois"`      // RoIs emitted by extraction
	Sessions  uint64 `json:"sessions"`  // sessions closed by the gap rule
	Snapshots uint64 `json:"snapshots"` // checkpoints written
	QueueLen  int    `json:"queue_len"`
	QueueCap  int    `json:"queue_cap"`
	WALBytes  int64  `json:"wal_bytes"`
	// WALSealed and WALErr surface the write-ahead log's health: once
	// an I/O fault seals the log, the pipeline is fail-fast read-only
	// and the error string names the cause. A healthy log reports
	// false/"". Monitoring reads these from /v1/ingest/stats and
	// /healthz — including for an idle pipeline whose background fsync
	// broke, which no Append would otherwise surface.
	WALSealed bool   `json:"wal_sealed"`
	WALErr    string `json:"wal_error,omitempty"`
}

type batchMsg struct {
	lsn     uint64
	samples []Sample
}

// Pipeline is the live ingestion path. Construct with New, feed with
// Ingest (any number of goroutines), stop with Close. One background
// goroutine owns sessionization and application.
type Pipeline struct {
	cfg  Config
	log  *wal.Log
	sink Sink

	mu     sync.Mutex // serialises Ingest admission (queue check + append + send)
	queue  chan batchMsg
	closed bool

	done    chan struct{}
	sess    *sessionizer
	sinceCP int
	snapReq atomic.Bool

	samples   atomic.Uint64
	batches   atomic.Uint64
	rejected  atomic.Uint64
	appended  atomic.Uint64
	applied   atomic.Uint64
	snapshots atomic.Uint64
	fatal     atomic.Value // error that stopped the apply loop
}

// New opens the WAL (repairing any torn tail) and starts the pipeline
// over sink. state resumes open sessions and the applied sequence
// number from a Recover; nil starts fresh. New does not replay
// anything — call Recover first and build the sink over its database.
func New(cfg Config, sink Sink, state *State) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sess, err := newSessionizer(cfg.Extract, cfg.SessionGap)
	if err != nil {
		return nil, err
	}
	var seq uint64
	if state != nil {
		if err := sess.restore(state.Sessions); err != nil {
			return nil, err
		}
		seq = state.Seq
	}
	log, err := wal.OpenFS(cfg.FS, cfg.WALPath, wal.Options{Policy: cfg.Sync, Interval: cfg.SyncInterval})
	if err != nil {
		return nil, err
	}
	log.AdvanceLSN(seq + 1)
	p := &Pipeline{
		cfg:   cfg,
		log:   log,
		sink:  sink,
		queue: make(chan batchMsg, cfg.QueueDepth),
		done:  make(chan struct{}),
		sess:  sess,
	}
	p.appended.Store(log.NextLSN() - 1)
	p.applied.Store(seq)
	go p.run()
	return p, nil
}

// Ingest makes one sample batch durable and queues it for application,
// returning its WAL sequence number. It is IngestCtx under a
// background context — uncancellable, as before.
func (p *Pipeline) Ingest(samples []Sample) (uint64, error) {
	return p.IngestCtx(context.Background(), samples)
}

// IngestCtx makes one sample batch durable and queues it for
// application, returning its WAL sequence number. Under
// SyncEveryAppend the batch is on stable storage when IngestCtx
// returns. A full apply queue returns ErrBacklogFull without writing
// anything. A cancelled or expired ctx rejects the batch before
// admission — never after the WAL append, because a record that
// reached the log will be applied on recovery whether or not the
// client was told, and an ack-then-cancel ambiguity is worse than a
// clean reject.
func (p *Pipeline) IngestCtx(ctx context.Context, samples []Sample) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(samples) == 0 {
		return 0, errors.New("ingest: empty batch")
	}
	if len(samples) > p.cfg.MaxBatch {
		return 0, fmt.Errorf("ingest: batch of %d exceeds limit %d", len(samples), p.cfg.MaxBatch)
	}
	if err, _ := p.fatal.Load().(error); err != nil {
		return 0, err
	}
	payload := EncodeBatch(make([]byte, 0, 4+len(samples)*sampleWireSize), samples)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	// Admission control before durability: a batch the queue cannot
	// hold must not reach the WAL, or recovery would apply work the
	// client was told to retry. The ctx re-check under the lock is the
	// last cancellation point — past here the batch commits.
	if len(p.queue) == cap(p.queue) {
		p.rejected.Add(1)
		return 0, ErrBacklogFull
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	lsn, err := p.log.Append(payload)
	if err != nil {
		return 0, err
	}
	p.appended.Store(lsn)
	p.samples.Add(uint64(len(samples)))
	p.batches.Add(1)
	// Guaranteed room: admission and sends are serialised by p.mu and
	// the consumer only drains.
	p.queue <- batchMsg{lsn: lsn, samples: samples}
	return lsn, nil
}

// run is the single apply goroutine: apply the queue one group at a
// time, checkpoint when due.
func (p *Pipeline) run() {
	defer close(p.done)
	for msg := range p.queue {
		err := p.applyGroup(msg)
		if err == nil && ((p.cfg.SnapshotEvery > 0 && p.sinceCP >= p.cfg.SnapshotEvery) || p.snapReq.Load()) {
			err = p.checkpoint()
		}
		if err != nil {
			p.fatal.Store(err)
			// Drain without applying so Close does not hang; the error
			// is surfaced by Ingest/Close/Err.
			for range p.queue {
			}
			return
		}
	}
}

// applyGroup is the group commit: it applies head and every batch
// already queued behind it as one unit — samples through the
// sessionizer in WAL order, one collect, one Sink.ApplyBatch — so the
// sink pays its per-apply cost (the server's epoch publish) once per
// drained queue instead of once per record. The queue length is read
// once, so a group always ends however fast writers append, and the
// queue depth bounds it. Only after the sink holds the group's RoIs
// does applied move to the group's last LSN: applied == appended still
// means every acknowledged record is queryable.
//
// Grouping is invisible in the data: the sessionizer sees the same
// sample sequence, collect keeps first-emission order across the
// group, and footprints sort stably (core.SortByMinX), so the database
// is the one a record-at-a-time apply (Recover) builds, bit for bit.
func (p *Pipeline) applyGroup(head batchMsg) error {
	msg := head
	for queued := len(p.queue); ; queued-- {
		for _, s := range msg.samples {
			if err := p.sess.push(s); err != nil {
				return err
			}
		}
		p.sinceCP++
		if queued == 0 {
			break
		}
		// Cannot block: this goroutine is the only receiver, so the
		// batches counted above are still there (also after Close,
		// which leaves buffered batches receivable).
		msg = <-p.queue
	}
	if updates := p.sess.collect(); len(updates) > 0 {
		p.sink.ApplyBatch(updates)
	}
	p.applied.Store(msg.lsn)
	return nil
}

// checkpoint stalls admission, applies whatever is queued, writes an
// atomic snapshot of (applied sequence, open sessions, database), and
// resets the WAL — which is safe exactly because admission is stalled
// and the queue is empty, so every record on disk is covered by the
// snapshot. The stall is the classic checkpoint pause; its length is
// bounded by one group (at most the queue depth) plus one snapshot
// write.
func (p *Pipeline) checkpoint() error {
	p.snapReq.Store(false)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		// Close raced in; run applies what is left in the queue and
		// Close writes the final snapshot itself.
		return nil
	}
	// Nothing is admitted while p.mu is held, so one group is the
	// whole queue.
	select {
	case msg := <-p.queue:
		if err := p.applyGroup(msg); err != nil {
			return err
		}
	default:
	}
	if err := p.writeSnapshot(); err != nil {
		return err
	}
	p.sinceCP = 0
	return p.log.Reset()
}

// writeSnapshot persists the checkpoint; callers guarantee quiescence
// (admission stalled, queue drained).
func (p *Pipeline) writeSnapshot() error {
	seq := p.applied.Load()
	state := State{Seq: seq, Sessions: p.sess.snapshot()}
	var err error
	p.sink.WithDB(func(db *store.FootprintDB) {
		err = writeSnapshotFile(p.cfg.FS, p.cfg.SnapshotPath, state, db)
	})
	if err != nil {
		return err
	}
	p.snapshots.Add(1)
	return nil
}

// TriggerSnapshot requests a checkpoint after the group currently
// being applied; it returns immediately. A quiescent pipeline (empty
// queue) checkpoints after the next batch it applies.
//
//lint:ignore testonly a crash-test hook: the crash and group-commit suites checkpoint at a chosen point
func (p *Pipeline) TriggerSnapshot() { p.snapReq.Store(true) }

// Drain blocks until every acknowledged batch has been applied, or the
// apply loop died. It is a test and shutdown aid, not a serving-path
// call.
func (p *Pipeline) Drain() error {
	target := p.appended.Load()
	for p.applied.Load() < target {
		if err, _ := p.fatal.Load().(error); err != nil {
			return err
		}
		select {
		case <-p.done:
			if err, _ := p.fatal.Load().(error); err != nil {
				return err
			}
			return nil
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// Close stops admission, applies everything queued, writes a final
// snapshot, and closes the WAL. Open sessions are NOT flushed — they
// are checkpointed as-is, so a restarted pipeline continues them
// exactly where this one stopped.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	<-p.done

	err, _ := p.fatal.Load().(error)
	if err == nil {
		err = p.writeSnapshot()
	}
	if err == nil {
		err = p.log.Reset()
	}
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// WALErr reports the error that sealed the write-ahead log, or nil
// while it is healthy. It also catches faults raised by the log's
// background fsync goroutine on an otherwise idle pipeline.
func (p *Pipeline) WALErr() error { return p.log.Err() }

// Stats returns a consistent-enough snapshot of the counters for
// monitoring; individual fields are atomically read but not mutually
// synchronized.
func (p *Pipeline) Stats() Stats {
	st := Stats{
		Samples:   p.samples.Load(),
		Batches:   p.batches.Load(),
		Rejected:  p.rejected.Load(),
		Appended:  p.appended.Load(),
		Applied:   p.applied.Load(),
		RoIs:      p.sess.roisEmitted(),
		Sessions:  p.sess.sessionsClosed(),
		Snapshots: p.snapshots.Load(),
		QueueLen:  len(p.queue),
		QueueCap:  cap(p.queue),
		WALBytes:  p.log.Size(),
	}
	if err := p.log.Err(); err != nil {
		st.WALSealed = true
		st.WALErr = err.Error()
	}
	return st
}
