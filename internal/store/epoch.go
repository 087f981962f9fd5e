package store

import (
	"slices"
	"sync/atomic"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

// Epoch-based MVCC for the serving path.
//
// The serving plane never locks on the read side: ingestion mutates a
// private working database owned by an EpochBuilder, and at batch (or
// checkpoint) boundaries freezes it into an immutable snapshot — an
// Epoch — published with a single atomic pointer swap. A query loads
// the current epoch on entry and runs entirely against its immutable
// parallel slices and indexes. A superseded epoch needs no reclaiming
// protocol: the garbage collector frees it once no query references it.
//
// Immutability is cheap because nothing a snapshot references is ever
// written in place:
//
//   - The parallel slices (IDs, Norms, MBRs) are copied per freeze —
//     O(users) word copies — so the builder's later element writes and
//     appends never touch a published snapshot.
//   - The regions and sketches (the O(users × regions) payload) live in
//     immutable chunks (chunks.go): a write replaces the chunk that
//     holds its row with a fresh copy, so Freeze copies only the spine
//     of chunk pointers, and builder and snapshot share every chunk the
//     builder has not rewritten since. The ID → index map is likewise
//     shared until the next user insertion.
//   - The indexes (the user-centric R-tree and the sketch transpose) are
//     shared with the epoch's base, and the epoch carries the set of
//     users written since it (base.go): a publish builds neither.

// Epoch is one immutable published snapshot of the serving state: a
// frozen FootprintDB plus an opaque per-epoch aux value (the server
// hangs its prebuilt index/engine view there). All fields are
// read-only after Publish; the epochmut geolint analyzer rejects
// mutating method calls on an epoch's database outside this package.
type Epoch struct {
	seq uint64
	db  *FootprintDB
	aux any
}

// Seq returns the epoch's sequence number (1 for the first publish).
func (e *Epoch) Seq() uint64 { return e.seq }

// DB returns the epoch's immutable database. Callers must treat it as
// read-only; the epochmut analyzer enforces this at lint time.
//
//lint:ignore testonly the epoch's read side: epochmut is built around it, and its fixtures call it
func (e *Epoch) DB() *FootprintDB { return e.db }

// Aux returns the opaque value attached at Publish (prebuilt indexes,
// engines); nil if none was attached.
func (e *Epoch) Aux() any { return e.aux }

// Release does nothing: an epoch holds no reference count, and the
// garbage collector frees it once nothing reaches it. It remains for
// the benchmark module, which times Acquire and Release as a pair.
func (e *Epoch) Release() {}

// EpochStore publishes epochs and hands them to queries. Reads
// (Acquire, Stats) are lock-free; Publish assumes a single publisher
// at a time — the server's write path already serialises mutations
// behind its mutation lock, which is exactly that discipline.
type EpochStore struct {
	cur atomic.Pointer[Epoch]
}

// NewEpochStore returns an empty store; Acquire returns nil until the
// first Publish.
func NewEpochStore() *EpochStore { return &EpochStore{} }

// Acquire returns the current epoch (nil before the first Publish):
// one atomic load.
func (s *EpochStore) Acquire() *Epoch { return s.cur.Load() }

// Publish freezes db (already immutable — typically EpochBuilder's
// Freeze output) and aux into a new epoch and makes it current with
// one atomic pointer swap. Single publisher at a time; see EpochStore.
func (s *EpochStore) Publish(db *FootprintDB, aux any) *Epoch {
	e := &Epoch{db: db, aux: aux, seq: s.CurrentSeq() + 1}
	s.cur.Store(e)
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

// EpochStats is a lock-free snapshot of the store's counters, shaped
// for /v1/ingest/stats, /healthz and operator logs.
type EpochStats struct {
	// Seq is the current epoch's sequence number (swap cadence is
	// visible as its growth rate).
	Seq uint64 `json:"seq"`
	// Published counts epoch publishes: every publish takes the next
	// sequence number, so it equals Seq.
	Published uint64 `json:"published"`
}

// Stats returns the store's counters.
func (s *EpochStore) Stats() EpochStats {
	seq := s.CurrentSeq()
	return EpochStats{Seq: seq, Published: seq}
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

	// base is the base the next Freeze hands on (nil: it starts a new
	// one), and written the users written since it, appended users
	// included; setShared marks written's bits as shared with the
	// latest snapshot, copied before the next new member.
	base      *indexBase
	written   UserSet
	setShared bool
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

// mark adds user u to the written set.
func (b *EpochBuilder) mark(u int) {
	if b.base == nil || b.written.Has(u) {
		return // a new base starts with an empty set
	}
	s, w := &b.written, u>>6
	if b.setShared {
		s.bits, b.setShared = slices.Clone(s.bits), false
	}
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	s.bits[w] |= 1 << (u & 63)
	s.n++
}

// Upsert inserts or replaces a user's footprint (FootprintDB.Upsert
// semantics: sorted in place, then copied) and returns the dense
// index.
func (b *EpochBuilder) Upsert(id int, f core.Footprint) int {
	b.ensureMapOwned(id)
	u := b.db.Upsert(id, f)
	b.mark(u)
	return u
}

// AppendRoIs extends a user's footprint with new regions, creating the
// user if needed, and returns the dense index.
func (b *EpochBuilder) AppendRoIs(id int, regions []core.Region) int {
	b.ensureMapOwned(id)
	u := b.db.AppendRoIs(id, regions)
	b.mark(u)
	return u
}

// Remove tombstones a user (FootprintDB.Remove semantics).
func (b *EpochBuilder) Remove(id int) bool {
	u, ok := b.db.IndexOf(id)
	if ok {
		b.db.Remove(id)
		b.mark(u)
	}
	return ok
}

// EnableSketches (re)builds the working database's sketch layer. It
// writes a fresh copy of every chunk header — the regions stay shared —
// so published snapshots keep the chunks and sketches they were frozen
// with, and the next Freeze starts a new base: the base's transpose
// describes the layer being replaced.
func (b *EpochBuilder) EnableSketches(g, workers int) {
	b.db.EnableSketches(g, workers)
	b.base = nil
}

// Freeze snapshots the working database into an immutable FootprintDB
// ready for EpochStore.Publish. The snapshot gets private copies of
// the parallel slices and of the chunk spine, and shares the chunks,
// the ID → index map and the pinned snapshot (colSrc) with the builder,
// and its base and written set with the epochs frozen before it since
// that base began. Once the set has passed rebuildAfter users — and on
// the first Freeze, or the first after EnableSketches — the snapshot
// starts a new base with an empty set instead. The ID map is
// materialised first so epoch readers never race a lazy build. The
// builder remains valid and owns the working database.
func (b *EpochBuilder) Freeze() *FootprintDB {
	db := b.db
	db.ensureByID()
	if b.base == nil || b.written.Len() > rebuildAfter {
		b.base, b.written = &indexBase{users: db.Len()}, UserSet{}
	}
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
		written:      b.written,
	}
	snap.base.Store(b.base)
	b.mapShared, b.setShared = true, true
	return snap
}
