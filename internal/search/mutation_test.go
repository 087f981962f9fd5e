package search

import (
	"math/rand"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/store"
)

// Indexes are immutable views of the database they were built over:
// the serving path mutates the database and builds the next epoch's
// indexes from scratch. These tests pin what such a rebuild must see.

func TestRemovedUserUnreachable(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := testDB(t, rng, 30)

	victim := db.IDs[5]
	q := append(core.Footprint(nil), db.Footprints[5]...) // copy before tombstoning
	if !db.Remove(victim) {
		t.Fatal("Remove failed")
	}
	roi := NewRoIIndex(db, BuildSTR, 0)
	uc := NewUserCentricIndex(db, BuildSTR, 0)

	for name, res := range map[string][]Result{
		"linear":    NewLinearScan(db).TopK(q, db.Len()),
		"iterative": roi.TopKIterative(q, db.Len()),
		"batch":     roi.TopKBatch(q, db.Len()),
		"uc":        uc.TopK(q, db.Len()),
	} {
		for _, r := range res {
			if r.ID == victim {
				t.Errorf("%s: removed user %d still returned", name, victim)
			}
		}
	}
}

func TestUpsertNewUserFindable(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	db := testDB(t, rng, 25)

	f := core.Footprint{{Rect: geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.42, MaxY: 0.42}, Weight: 1}}
	db.Upsert(7777, f)
	roi := NewRoIIndex(db, BuildInsert, 0)
	uc := NewUserCentricIndex(db, BuildInsert, 0)

	for name, res := range map[string][]Result{
		"iterative": roi.TopKIterative(f, 1),
		"batch":     roi.TopKBatch(f, 1),
		"uc":        uc.TopK(f, 1),
	} {
		if len(res) == 0 || res[0].ID != 7777 || res[0].Score < 1-1e-9 {
			t.Errorf("%s: new user not top-ranked for its own footprint: %v", name, res)
		}
	}
}

func TestAppendRoIsKeepsSorted(t *testing.T) {
	db, err := store.FromFootprints("s", []int{1}, []core.Footprint{{
		{Rect: geom.Rect{MinX: 0.5, MinY: 0, MaxX: 0.6, MaxY: 0.1}, Weight: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	db.AppendRoIs(1, []core.Region{
		{Rect: geom.Rect{MinX: 0.1, MinY: 0, MaxX: 0.2, MaxY: 0.1}, Weight: 1},
	})
	f := db.Row(0)
	if len(f) != 2 || f[0].Rect.MinX > f[1].Rect.MinX {
		t.Errorf("footprint not sorted after AppendRoIs: %+v", f)
	}
	// Norm refreshed.
	if got, want := db.Norms[0], core.Norm(f); got != want {
		t.Errorf("norm stale after AppendRoIs: %v vs %v", got, want)
	}
}
