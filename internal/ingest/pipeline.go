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
	// WALPath is the write-ahead log file. Recover requires it; New
	// also accepts it empty, for a pipeline with no log (see New).
	WALPath string
	// SnapshotPath is the snapshot file, written atomically on every
	// checkpoint; empty exactly when WALPath is.
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
	// QueueDepth bounds the apply queue in records; a full queue
	// rejects Ingest, Upsert and Remove with ErrBacklogFull (default
	// 256).
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
// one apply function with the effects of one group of consecutive WAL
// records (one record on an idle pipeline, everything that queued up
// behind it on a busy one) in record order: the RoIs the group's
// samples finished, per user in first-emission order, with each edit
// (upsert, removal) in its place between them. Implementations apply
// each with UserRoIs.ApplyTo and serialise the call against their own
// readers (the HTTP server holds its write lock). WithDB exposes the
// database quiesced — no ApplyBatch runs during fn — for
// checkpointing.
type Sink interface {
	ApplyBatch(updates []UserRoIs)
	WithDB(fn func(db *store.FootprintDB))
}

// DBSink is the plain Sink over a bare FootprintDB: it applies each
// update, converting RoIs under a weighting. It is what recovery
// replays into, and what embedders without an HTTP server use.
type DBSink struct {
	DB        *store.FootprintDB
	Weighting core.Weighting
}

func (s *DBSink) ApplyBatch(updates []UserRoIs) {
	for _, u := range updates {
		u.ApplyTo(s.DB, s.Weighting)
	}
}

func (s *DBSink) WithDB(fn func(db *store.FootprintDB)) { fn(s.DB) }

// ErrBacklogFull is returned by Ingest, Upsert and Remove when the
// apply queue is full: the caller should back off and retry (the HTTP
// layer maps it to 429 + Retry-After). The rejected record was NOT
// written to the WAL — rejection happens before the append, so a
// rejected record can never resurface during recovery.
var ErrBacklogFull = errors.New("ingest: apply queue full, retry later")

// ErrClosed is returned by Ingest, Upsert and Remove after Close.
var ErrClosed = errors.New("ingest: pipeline closed")

var errCorruptState = errors.New("ingest: snapshot state has unapplied RoIs")

// Stats is a point-in-time snapshot of the pipeline counters.
type Stats struct {
	Samples   uint64 `json:"samples"`   // samples accepted
	Batches   uint64 `json:"batches"`   // records appended: sample batches and edits
	Rejected  uint64 `json:"rejected"`  // batches refused by backpressure
	Appended  uint64 `json:"appended"`  // last appended LSN
	Grouped   uint64 `json:"grouped"`   // last LSN taken into an apply group
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

type recordMsg struct {
	lsn uint64
	rec Record
}

// Pipeline is the write path: every data mutation is a record it
// logs and applies. Construct with New, feed with Ingest, Upsert and
// Remove (any number of goroutines), stop with Close. With a log, one
// background goroutine owns sessionization and application.
type Pipeline struct {
	cfg  Config
	log  *wal.Log // nil: no log, records apply inline (see New)
	sink Sink

	mu     sync.Mutex // serialises admission (queue check + append + send)
	queue  chan recordMsg
	closed bool

	done    chan struct{}
	sess    *sessionizer
	sinceCP int
	snapReq atomic.Bool

	samples   atomic.Uint64
	batches   atomic.Uint64
	rejected  atomic.Uint64
	appended  atomic.Uint64
	grouped   atomic.Uint64
	applied   atomic.Uint64
	snapshots atomic.Uint64

	// The applied-LSN signal: progress is broadcast whenever applied
	// moves or fatal is set, both under waitMu.
	waitMu   sync.Mutex
	progress sync.Cond
	fatal    error // the error that stopped the apply loop
}

// New starts the pipeline over sink. state resumes open sessions and
// the applied sequence number from a Recover; nil starts fresh. New
// does not replay anything — call Recover first and build the sink
// over its database. With a WALPath, New opens the WAL (repairing any
// torn tail) and starts the apply goroutine.
//
// With neither WALPath nor SnapshotPath the pipeline has no log: each
// record is applied by the call that submits it, under the admission
// lock, through the same apply function. Nothing is durable, nothing
// is checkpointed, and no goroutine runs, so such a pipeline needs no
// Close.
func New(cfg Config, sink Sink, state *State) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if (cfg.WALPath == "") != (cfg.SnapshotPath == "") {
		return nil, errors.New("ingest: Config needs both WALPath and SnapshotPath, or neither")
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
	p := &Pipeline{cfg: cfg, sink: sink, sess: sess}
	p.progress.L = &p.waitMu
	p.appended.Store(seq)
	p.grouped.Store(seq)
	p.applied.Store(seq)
	if cfg.WALPath == "" {
		return p, nil
	}
	log, err := wal.OpenFS(cfg.FS, cfg.WALPath, wal.Options{Policy: cfg.Sync, Interval: cfg.SyncInterval})
	if err != nil {
		return nil, err
	}
	log.AdvanceLSN(seq + 1)
	p.log = log
	p.queue = make(chan recordMsg, cfg.QueueDepth)
	p.done = make(chan struct{})
	p.appended.Store(log.NextLSN() - 1)
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
// application, returning its WAL sequence number (see submit).
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
	return p.submit(ctx, Record{Samples: samples})
}

// Upsert makes "user id's footprint is f" a durable record and returns
// its WAL sequence number once the record is applied, so the caller
// reads its own write. Admission and ctx are IngestCtx's (see submit);
// past the append only a fatal apply error is returned.
func (p *Pipeline) Upsert(ctx context.Context, id int, f core.Footprint) (uint64, error) {
	return p.edit(ctx, UserRoIs{User: id, Op: OpUpsert, Regions: f})
}

// Remove makes "user id's footprint is empty" a durable record and
// returns its WAL sequence number once the record is applied, as
// Upsert does. Removing an unknown or empty user changes nothing.
func (p *Pipeline) Remove(ctx context.Context, id int) (uint64, error) {
	return p.edit(ctx, UserRoIs{User: id, Op: OpRemove})
}

func (p *Pipeline) edit(ctx context.Context, e UserRoIs) (uint64, error) {
	lsn, err := p.submit(ctx, Record{Edit: e})
	if err != nil {
		return 0, err
	}
	return lsn, p.waitApplied(lsn)
}

// submit is every record's admission: it appends the record to the WAL
// and queues it for the apply goroutine, returning its sequence number.
// Under SyncEveryAppend the record is on stable storage when submit
// returns. A full apply queue returns ErrBacklogFull without writing
// anything. A cancelled or expired ctx rejects the record before the
// append — never after it, because a record that reached the log will
// be applied on recovery whether or not the client was told, and an
// ack-then-cancel ambiguity is worse than a clean reject. With no log
// the record gets the next sequence number and is applied here,
// serialised with every other record by p.mu.
func (p *Pipeline) submit(ctx context.Context, rec Record) (uint64, error) {
	if err := p.err(); err != nil {
		return 0, err
	}
	var payload []byte
	if p.log != nil {
		payload = appendRecord(make([]byte, 0, 4+len(rec.Samples)*sampleWireSize), rec)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	// Admission control before durability: a record the queue cannot
	// hold must not reach the WAL, or recovery would apply work the
	// client was told to retry. The ctx re-check under the lock is the
	// last cancellation point — past here the record commits.
	if p.log != nil && len(p.queue) == cap(p.queue) {
		p.rejected.Add(1)
		return 0, ErrBacklogFull
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	msg := recordMsg{lsn: p.appended.Load() + 1, rec: rec}
	if p.log != nil {
		lsn, err := p.log.Append(payload)
		if err != nil {
			return 0, err
		}
		msg.lsn = lsn
	}
	p.appended.Store(msg.lsn)
	p.samples.Add(uint64(len(rec.Samples)))
	p.batches.Add(1)
	if p.log == nil {
		if err := p.applyGroup(msg); err != nil {
			p.fail(err)
			return 0, err
		}
		return msg.lsn, nil
	}
	// Guaranteed room: admission and sends are serialised by p.mu and
	// the consumer only drains.
	p.queue <- msg
	return msg.lsn, nil
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
			p.fail(err)
			// Drain without applying so Close does not hang; the error
			// is surfaced by Ingest/Close/Err.
			for range p.queue {
			}
			return
		}
	}
}

// applyGroup is the group commit: it applies head and every record
// already queued behind it as one unit through applyRecords — one
// Sink.ApplyBatch — so the sink pays its per-apply cost (the server's
// epoch publish) once per drained queue instead of once per record.
// The queue length is read once, so a group always ends however fast
// writers append, and the queue depth bounds it. Only after the sink
// holds the group's effects does applied move to the group's last LSN:
// applied == appended still means every acknowledged record is
// queryable.
func (p *Pipeline) applyGroup(head recordMsg) error {
	msg, queued := head, len(p.queue)
	group := make([]Record, 0, queued+1)
	for ; ; queued-- {
		group = append(group, msg.rec)
		if queued == 0 {
			break
		}
		// Cannot block: this goroutine is the only receiver, so the
		// records counted above are still there (also after Close,
		// which leaves buffered records receivable).
		msg = <-p.queue
	}
	// The group is fixed: a record appended from here on waits in the
	// queue for the next one.
	p.grouped.Store(msg.lsn)
	p.sinceCP += len(group)
	if err := applyRecords(p.sess, p.sink, group); err != nil {
		return err
	}
	p.waitMu.Lock()
	p.applied.Store(msg.lsn)
	p.waitMu.Unlock()
	p.progress.Broadcast()
	return nil
}

// applyRecords is the one apply function, of the live pipeline and of
// Recover alike: it pushes a group of consecutive records' samples
// through sess in record order, collects the RoIs finished so far
// before each edit, so every effect keeps its record order, and hands
// the group's effects to sink in one ApplyBatch (none if there are
// none).
//
// Grouping is invisible in the data: the sessionizer sees the same
// sample sequence, collect keeps first-emission order between two
// edits, and footprints sort stably (core.SortByMinX), so the database
// is the one a record-at-a-time apply (Recover) builds, bit for bit.
func applyRecords(sess *sessionizer, sink Sink, group []Record) error {
	var updates []UserRoIs
	for _, rec := range group {
		if len(rec.Samples) == 0 {
			updates = append(sess.collect(updates), rec.Edit)
			continue
		}
		for _, s := range rec.Samples {
			if err := sess.push(s); err != nil {
				return err
			}
		}
	}
	if updates = sess.collect(updates); len(updates) > 0 {
		sink.ApplyBatch(updates)
	}
	return nil
}

// err returns the error that stopped the apply loop, or nil.
func (p *Pipeline) err() error {
	p.waitMu.Lock()
	defer p.waitMu.Unlock()
	return p.fatal
}

// fail records the error that stopped the apply loop (the first one
// wins) and wakes every waiter.
func (p *Pipeline) fail(err error) {
	p.waitMu.Lock()
	if p.fatal == nil {
		p.fatal = err
	}
	p.waitMu.Unlock()
	p.progress.Broadcast()
}

// waitApplied blocks until applied reaches lsn, or returns the error
// that stopped the apply loop first.
func (p *Pipeline) waitApplied(lsn uint64) error {
	p.waitMu.Lock()
	defer p.waitMu.Unlock()
	for p.applied.Load() < lsn {
		if p.fatal != nil {
			return p.fatal
		}
		p.progress.Wait()
	}
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

// Drain blocks until every record acknowledged so far has been
// applied, or returns the error that stopped the apply loop. It is a
// test and shutdown aid, not a serving-path call.
func (p *Pipeline) Drain() error { return p.waitApplied(p.appended.Load()) }

// Close stops admission, applies everything queued, writes a final
// snapshot, and closes the WAL (with no log it only stops admission). Open sessions are NOT flushed — they
// are checkpointed as-is, so a restarted pipeline continues them
// exactly where this one stopped.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	if p.log == nil {
		p.mu.Unlock()
		return nil
	}
	close(p.queue)
	p.mu.Unlock()
	<-p.done

	err := p.err()
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
// while it is healthy (or absent). It also catches faults raised by
// the log's background fsync goroutine on an otherwise idle pipeline.
func (p *Pipeline) WALErr() error {
	if p.log == nil {
		return nil
	}
	return p.log.Err()
}

// Stats returns a consistent-enough snapshot of the counters for
// monitoring; individual fields are atomically read but not mutually
// synchronized.
func (p *Pipeline) Stats() Stats {
	st := Stats{
		Samples:   p.samples.Load(),
		Batches:   p.batches.Load(),
		Rejected:  p.rejected.Load(),
		Appended:  p.appended.Load(),
		Grouped:   p.grouped.Load(),
		Applied:   p.applied.Load(),
		RoIs:      p.sess.roisEmitted(),
		Sessions:  p.sess.sessionsClosed(),
		Snapshots: p.snapshots.Load(),
		QueueLen:  len(p.queue),
		QueueCap:  cap(p.queue),
	}
	if p.log == nil {
		return st
	}
	st.WALBytes = p.log.Size()
	if err := p.log.Err(); err != nil {
		st.WALSealed = true
		st.WALErr = err.Error()
	}
	return st
}
