package store

import (
	"sync/atomic"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/sketch"
)

// Epoch-based MVCC for the serving path.
//
// The serving plane never locks on the read side: ingestion mutates a
// private working database owned by an EpochBuilder, and at batch (or
// checkpoint) boundaries freezes it into an immutable snapshot — an
// Epoch — published with a single atomic pointer swap. Queries pin the
// current epoch on entry, run entirely against its immutable parallel
// slices and indexes, and release it on exit; a superseded epoch is
// reclaimed when its last pinned query drains.
//
// Immutability is cheap because nothing a snapshot references is ever
// written in place:
//
//   - The parallel slice headers (IDs, Norms, MBRs, Sketches) are
//     copied per freeze — O(users) word copies — so the builder's later
//     element writes and appends never touch a published snapshot.
//   - The regions (the O(users × regions) payload) live in immutable
//     chunks (chunks.go): a write replaces the chunk that holds its row
//     with a fresh copy, so Freeze copies only the spine of chunk
//     pointers, and builder and snapshot share every chunk the builder
//     has not rewritten since. The ID → index map is likewise shared
//     until the next user insertion.
//
// Reclamation is a flag-and-counter protocol: the publisher retires
// the superseded epoch, and whoever moves the pin count to zero while
// the retired flag is set — the publisher if no query holds a pin, the
// last draining query otherwise — atomically swaps the count to a
// negative sentinel, making late pin attempts fail and retry on the
// new current epoch. Go's atomics are sequentially consistent, so the
// pin increment and the retire flag cannot both be missed.

// epochReclaimed is the pin-count sentinel marking a drained, retired
// epoch. Any value < 0 blocks tryPin; half of MinInt64 keeps decrement
// underflow unreachable.
const epochReclaimed = int64(-1) << 62

// Epoch is one immutable published snapshot of the serving state: a
// frozen FootprintDB plus an opaque per-epoch aux value (the server
// hangs its prebuilt index/engine view there). All fields are
// read-only after Publish; the epochmut geolint analyzer rejects
// mutating method calls on an epoch's database outside this package.
type Epoch struct {
	seq uint64
	db  *FootprintDB
	aux any
	es  *EpochStore

	// pins counts queries currently inside the epoch; epochReclaimed
	// once retired and drained.
	pins    atomic.Int64
	retired atomic.Bool
}

// Seq returns the epoch's sequence number (1 for the first publish).
func (e *Epoch) Seq() uint64 { return e.seq }

// DB returns the epoch's immutable database. Callers must treat it as
// read-only; the epochmut analyzer enforces this at lint time.
//
//lint:ignore testonly the epoch's read side: epochmut and pinleak are built around it, and their fixtures call it
func (e *Epoch) DB() *FootprintDB { return e.db }

// Aux returns the opaque value attached at Publish (prebuilt indexes,
// engines); nil if none was attached.
func (e *Epoch) Aux() any { return e.aux }

// tryPin attempts to take a reference; it fails once the epoch has
// been reclaimed (Acquire then retries on the new current epoch).
func (e *Epoch) tryPin() bool {
	for {
		p := e.pins.Load()
		if p < 0 {
			return false
		}
		if e.pins.CompareAndSwap(p, p+1) {
			return true
		}
	}
}

// Release drops a pin taken by Acquire. When the last pin of a retired
// epoch drains, the epoch is reclaimed.
func (e *Epoch) Release() {
	e.es.live.Add(-1)
	if e.pins.Add(-1) == 0 && e.retired.Load() {
		e.tryReclaim()
	}
}

// tryReclaim transitions a drained epoch to the reclaimed state
// exactly once: the CAS from 0 to the sentinel can only succeed for
// one caller, and only while no pin is held (pins == 0). After it, no
// new pin can be taken.
func (e *Epoch) tryReclaim() {
	if e.pins.CompareAndSwap(0, epochReclaimed) {
		e.es.reclaimed.Add(1)
	}
}

// retire marks the epoch superseded. Called by Publish on the previous
// current epoch, after the swap; if no query holds a pin the epoch is
// reclaimed immediately, otherwise the last Release reclaims it.
func (e *Epoch) retire() {
	e.retired.Store(true)
	if e.pins.Load() == 0 {
		e.tryReclaim()
	}
}

// EpochStore publishes epochs and hands them to queries. Reads
// (Acquire, Stats) are lock-free; Publish assumes a single publisher
// at a time — the server's write path already serialises mutations
// behind its mutation lock, which is exactly that discipline.
type EpochStore struct {
	cur atomic.Pointer[Epoch]

	published atomic.Uint64
	reclaimed atomic.Uint64
	// live counts currently outstanding pins across all epochs.
	live atomic.Int64
}

// NewEpochStore returns an empty store; Acquire returns nil until the
// first Publish.
func NewEpochStore() *EpochStore { return &EpochStore{} }

// Acquire pins and returns the current epoch (nil before the first
// Publish). The caller must Release it — typically deferred at query
// entry. The retry loop terminates: a pin attempt only fails on a
// reclaimed epoch, and an epoch is only reclaimed after a newer one
// became current.
func (s *EpochStore) Acquire() *Epoch {
	for {
		e := s.cur.Load()
		if e == nil {
			return nil
		}
		if e.tryPin() {
			s.live.Add(1)
			return e
		}
	}
}

// Publish freezes db (already immutable — typically EpochBuilder's
// Freeze output) and aux into a new epoch, makes it current with one
// atomic pointer swap, and retires the predecessor. Single publisher
// at a time; see EpochStore.
func (s *EpochStore) Publish(db *FootprintDB, aux any) *Epoch {
	old := s.cur.Load()
	e := &Epoch{db: db, aux: aux, es: s, seq: 1}
	if old != nil {
		e.seq = old.seq + 1
	}
	s.cur.Store(e)
	s.published.Add(1)
	if old != nil {
		old.retire()
	}
	return e
}

// CurrentSeq returns the current epoch's sequence number, 0 before the
// first Publish. Lock-free; for stats and logs.
func (s *EpochStore) CurrentSeq() uint64 {
	if e := s.cur.Load(); e != nil {
		return e.seq
	}
	return 0
}

// EpochStats is a lock-free snapshot of the store's lifecycle
// counters, shaped for /v1/ingest/stats, /healthz and operator logs.
type EpochStats struct {
	// Seq is the current epoch's sequence number (swap cadence is
	// visible as its growth rate).
	Seq uint64 `json:"seq"`
	// Published and Reclaimed count epoch lifecycle transitions;
	// Live = Published - Reclaimed is the number of epochs still
	// reachable (current plus retired-but-pinned).
	Published uint64 `json:"published"`
	Reclaimed uint64 `json:"reclaimed"`
	Live      uint64 `json:"live"`
	// Pins is the number of queries currently holding an epoch.
	Pins int64 `json:"pins"`
}

// Stats returns the store's lifecycle counters.
func (s *EpochStore) Stats() EpochStats {
	pub, rec := s.published.Load(), s.reclaimed.Load()
	return EpochStats{
		Seq:       s.CurrentSeq(),
		Published: pub,
		Reclaimed: rec,
		Live:      pub - rec,
		Pins:      s.live.Load(),
	}
}

// EpochBuilder owns the mutable working database the next epoch is
// built from. All mutations go through the builder — the seam the
// epochmut analyzer enforces — so it can re-own the shared ID → index
// map before delegating to the store's mutation methods. It is not
// concurrency-safe: the caller serialises mutations and Freeze behind
// its write path, exactly like FootprintDB itself.
type EpochBuilder struct {
	db *FootprintDB

	// mapShared marks db.byID as shared with the latest snapshot; it
	// is copied before the next user insertion.
	mapShared bool
}

// NewEpochBuilder wraps db (empty when nil) as the working state.
func NewEpochBuilder(db *FootprintDB) *EpochBuilder {
	if db == nil {
		db = &FootprintDB{}
	}
	return &EpochBuilder{db: db}
}

// DB exposes the working database for reads under the caller's write
// path (existence checks, checkpoint encoding). Mutations must go
// through the builder's own methods; epochmut flags them elsewhere.
func (b *EpochBuilder) DB() *FootprintDB { return b.db }

// Len returns the number of users in the working database.
func (b *EpochBuilder) Len() int { return b.db.Len() }

// ensureMapOwned re-owns the ID → index map before id is inserted (a
// no-op when id is present); point lookups on published epochs read
// the shared map lock-free, so the builder must never add keys to it.
func (b *EpochBuilder) ensureMapOwned(id int) {
	if _, ok := b.db.IndexOf(id); ok || !b.mapShared {
		return
	}
	m := make(map[int]int, len(b.db.byID)+1)
	for k, v := range b.db.byID {
		m[k] = v
	}
	b.db.byID = m
	b.mapShared = false
}

// Upsert inserts or replaces a user's footprint (FootprintDB.Upsert
// semantics: sorted in place, then copied) and returns the dense
// index.
func (b *EpochBuilder) Upsert(id int, f core.Footprint) int {
	b.ensureMapOwned(id)
	return b.db.Upsert(id, f)
}

// AppendRoIs extends a user's footprint with new regions, creating the
// user if needed, and returns the dense index.
func (b *EpochBuilder) AppendRoIs(id int, regions []core.Region) int {
	b.ensureMapOwned(id)
	return b.db.AppendRoIs(id, regions)
}

// Remove tombstones a user (FootprintDB.Remove semantics).
func (b *EpochBuilder) Remove(id int) bool { return b.db.Remove(id) }

// EnableSketches (re)builds the working database's sketch layer.
// EnableSketches allocates a fresh Sketches array and never writes
// into the chunks, so published snapshots are unaffected.
func (b *EpochBuilder) EnableSketches(g, workers int) {
	b.db.EnableSketches(g, workers)
}

// Freeze snapshots the working database into an immutable FootprintDB
// ready for EpochStore.Publish. The snapshot gets private copies of
// the parallel slice headers and of the chunk spine, and shares the
// chunks, the sketch payloads, the ID → index map and the pinned
// snapshot (colSrc) with the builder. The ID map is materialised
// first so epoch readers never race a lazy build. The builder remains
// valid and owns the working database.
func (b *EpochBuilder) Freeze() *FootprintDB {
	db := b.db
	db.ensureByID()
	snap := &FootprintDB{
		Name:         db.Name,
		IDs:          append([]int(nil), db.IDs...),
		Norms:        append([]float64(nil), db.Norms...),
		MBRs:         append([]geom.Rect(nil), db.MBRs...),
		SketchParams: db.SketchParams,
		byID:         db.byID,
		chunks:       append([]*chunk(nil), db.chunks...),
		colSrc:       db.colSrc,
		mapped:       db.mapped,
	}
	if db.Sketches != nil {
		snap.Sketches = append([]sketch.Sketch(nil), db.Sketches...)
	}
	b.mapShared = true
	return snap
}
