// Package storetest builds the epochs other packages' suites query:
// only tests import it.
package storetest

import (
	"math/rand"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/store"
)

// DerivedEpoch publishes db as a base, writes through the builder —
// upserts, appends, removals and new users, their footprints drawn
// from fresh — and returns the epoch frozen after them, once a later
// epoch of the same base, written further, has built the base's R-tree
// and transpose: the epoch reads indexes that are stale for users it
// never wrote. db becomes the builder's working database.
//
//lint:ignore testonly a fixture: the engine and search suites run their derived-epoch rows on it
func DerivedEpoch(t testing.TB, rng *rand.Rand, db *store.FootprintDB, fresh func(n int) []core.Footprint) *store.FootprintDB {
	t.Helper()
	b := store.NewEpochBuilder(db)
	b.Freeze()
	write := func(n int) {
		for i, f := range fresh(n) {
			id := db.IDs[rng.Intn(db.Len())]
			switch i % 4 {
			case 0:
				b.Upsert(id, f)
			case 1:
				b.AppendRoIs(id, f)
			case 2:
				b.Remove(id)
			default:
				b.Upsert(1_000_000+db.Len(), f) // a new user
			}
		}
	}
	write(40)
	epoch := b.Freeze()
	write(40)
	later := b.Freeze()
	if later.UserTree() != epoch.UserTree() || later.SketchPostings(1<<40) == nil || epoch.SketchPostings(0) == nil {
		t.Fatal("the later epoch did not build the indexes it shares with the derived one")
	}
	return epoch
}
