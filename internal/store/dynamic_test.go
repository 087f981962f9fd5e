package store

import (
	"math/rand"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

func smallDB(t *testing.T, seed int64, ids []int) *FootprintDB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fps := make([]core.Footprint, len(ids))
	for i := range fps {
		x, y := rng.Float64(), rng.Float64()
		fps[i] = core.Footprint{{
			Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05},
			Weight: 1,
		}}
	}
	db, err := FromFootprints("dyn", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestUpsertAndRemove(t *testing.T) {
	db := smallDB(t, 1, []int{10, 20, 30})
	// Replace user 20.
	f := core.Footprint{{Rect: geom.Rect{MinX: 0.9, MinY: 0.9, MaxX: 0.95, MaxY: 0.95}, Weight: 2}}
	u := db.Upsert(20, f)
	if i, _ := db.IndexOf(20); i != u {
		t.Errorf("Upsert index %d, IndexOf %d", u, i)
	}
	if db.Norm(u) != core.Norm(f) || db.MBR(u) != f.MBR() {
		t.Error("Upsert did not refresh norm/MBR")
	}
	// Add user 40.
	n := db.Len()
	u = db.Upsert(40, f)
	if db.Len() != n+1 || u != n {
		t.Errorf("new user index %d, Len %d", u, db.Len())
	}
	// Remove user 10: tombstoned, indexes stable.
	if !db.Remove(10) {
		t.Fatal("Remove failed")
	}
	if i, ok := db.IndexOf(10); !ok || i != 0 {
		t.Error("tombstoned user lost its index")
	}
	if db.Norm(0) != 0 || db.RowLen(0) != 0 {
		t.Error("tombstone incomplete")
	}
	if db.Remove(999) {
		t.Error("Remove of absent user succeeded")
	}
	// IDs of other users unaffected.
	if i, _ := db.IndexOf(30); i != 2 {
		t.Error("indexes shifted")
	}
}
