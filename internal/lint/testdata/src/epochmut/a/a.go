// Package a is the epochmut fixture: direct mutation of a database
// reached through an Epoch or EpochBuilder's DB() accessor is flagged;
// reads, engine queries and mutation through the builder's own
// copy-on-write methods are not.
package a

import (
	"geofootprint/internal/core"
	"geofootprint/internal/store"
)

// MutatePinned mutates a published, lock-free-read snapshot in place:
// every call is a data race with concurrent queries.
func MutatePinned(ep *store.Epoch, f core.Footprint) {
	ep.DB().Upsert(1, f)      // want `mutating call FootprintDB.Upsert on an epoch-published database`
	db := ep.DB()
	db.Remove(3)              // want `mutating call FootprintDB.Remove on an epoch-published database`
	db.ComputeNorms(0)        // want `mutating call FootprintDB.ComputeNorms on an epoch-published database`
	alias := db               // taint survives local aliasing
	alias.DisableSketches()   // want `mutating call FootprintDB.DisableSketches on an epoch-published database`
}

// MutateBuilderDB bypasses the builder's copy-on-write seam: the raw
// database is aliased by every snapshot frozen from this builder.
func MutateBuilderDB(b *store.EpochBuilder) {
	b.DB().EnableSketches(0, 0) // want `mutating call FootprintDB.EnableSketches on an epoch-published database`
	db := b.DB()
	db.AppendRoIs(7, nil)       // want `mutating call FootprintDB.AppendRoIs on an epoch-published database`
}

// ReadOnly: reads and queries against a pinned epoch are the whole
// point of the design; nothing to flag.
func ReadOnly(ep *store.Epoch) (int, bool) {
	db := ep.DB()
	_, ok := db.IndexOf(1)
	return db.Len(), ok
}

// BuilderSeam mutates through the EpochBuilder's own methods — the one
// legal mutation path (copy-on-write, then Freeze and republish).
func BuilderSeam(b *store.EpochBuilder, f core.Footprint) *store.FootprintDB {
	b.Upsert(1, f)
	b.Remove(2)
	return b.Freeze()
}

// PlainDB: a database that never came from an epoch is outside this
// analyzer's contract (sortedfootprint and the store API govern it).
func PlainDB(db *store.FootprintDB, f core.Footprint) {
	db.Upsert(1, f)
}

// Suppressed: a justified ignore is honoured (e.g. a test harness
// deliberately corrupting a snapshot to exercise race detection).
func Suppressed(ep *store.Epoch) {
	//lint:ignore epochmut deliberately racing a pinned snapshot to exercise the chaos suite
	ep.DB().Remove(9)
}
