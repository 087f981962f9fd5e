package geofootprint_test

import (
	"math/rand"
	"reflect"
	"testing"

	"geofootprint"
)

// TestQueryEngineFacade exercises the parallel engine through the
// public façade: batched execution must match the oracle byte for
// byte.
func TestQueryEngineFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const users = 120
	ids := make([]int, users)
	fps := make([]geofootprint.Footprint, users)
	for u := range fps {
		ids[u] = u + 1
		n := 1 + rng.Intn(6)
		f := make(geofootprint.Footprint, n)
		for i := range f {
			x, y := rng.Float64(), rng.Float64()
			f[i] = geofootprint.Region{
				Rect:   geofootprint.Rect{MinX: x, MinY: y, MaxX: x + 0.08, MaxY: y + 0.06},
				Weight: 1,
			}
		}
		fps[u] = f
	}
	db, err := geofootprint.NewDB("facade-engine", ids, fps)
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	idx := geofootprint.NewUserCentricIndex(db)
	lin := geofootprint.NewLinearScan(db)
	eng := geofootprint.NewQueryEngine(db, idx, 4)

	queries := []geofootprint.Footprint{db.Footprints[3], db.Footprints[50], db.Footprints[99]}
	got := eng.TopKBatch(queries, 5)
	for i, q := range queries {
		want := lin.TopK(q, 5)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("query %d: engine %v, linear scan %v", i, got[i], want)
		}
		if single := eng.TopK(q, 5); !reflect.DeepEqual(single, want) {
			t.Fatalf("query %d: engine TopK %v, linear scan %v", i, single, want)
		}
	}
}
