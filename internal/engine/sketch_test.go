package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
	"geofootprint/internal/synth"
)

// TestSketchAutoEnable: New with MethodSketch on a sketch-less
// database must enable the layer itself, and the engine's answers must
// still match the one-worker run of the same loop on the same (now
// enabled) database.
func TestSketchAutoEnable(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	db := testDB(t, rng, 150)
	if db.SketchesEnabled() {
		t.Fatal("fresh database unexpectedly has sketches")
	}
	e := New(db, Options{Workers: 4, Method: MethodSketch})
	if !db.SketchesEnabled() {
		t.Fatal("New(MethodSketch) did not enable the sketch layer")
	}
	for trial := 0; trial < 10; trial++ {
		q := db.Footprints[rng.Intn(db.Len())]
		want, _ := e.serialTopKCtx(context.Background(), q, 5)
		if got := e.TopK(q, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: parallel sketch TopK diverged\ngot:  %v\nwant: %v", trial, got, want)
		}
	}
}

// TestSketchForcedFanout drives the strided parallel path directly by
// using a single-candidate-per-shard threshold-beating workload: a
// large database queried with a broad footprint so the candidate list
// far exceeds minShard per worker.
func TestSketchForcedFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := testDB(t, rng, 600)
	e := New(db, Options{Workers: 8, Method: MethodSketch})
	for trial := 0; trial < 15; trial++ {
		q := db.Footprints[rng.Intn(db.Len())]
		k := 1 + rng.Intn(12)
		want := e.uc.TopKSketch(q, k)
		if got := e.TopK(q, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d k=%d: diverged\ngot:  %v\nwant: %v", trial, k, got, want)
		}
	}
}

// partA builds a small Part A database the way geobench does: the
// indoor-mobility generator, Algorithm 1, unit weights.
func partA(t *testing.T, scale float64) *store.FootprintDB {
	t.Helper()
	cfg, err := synth.PartConfig("A", scale)
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Build(ds, extract.Config{Epsilon: 0.02, Tau: 30}, core.UnitWeight, 0)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEveryMethodRefinesByBound: on Part A the default method does the
// work method=sketch does — same candidates, same bounds, the same
// number of Algorithm 4 joins, which is the serial sketch search's count
// on one worker — and that number is well below the candidate count,
// for every worker count; the methods with other candidate sources are
// bounded too. Counts are a function of (query, k, workers), so two
// runs agree exactly.
func TestEveryMethodRefinesByBound(t *testing.T) {
	db := partA(t, 0.002)
	db.EnableSketches(0, 0)
	uc := search.NewUserCentricIndex(db, search.BuildSTR, 0)
	roi := search.NewRoIIndex(db, search.BuildSTR, 0)
	ctx := context.Background()
	const k = 5
	var candidates, refined int
	for qi := 0; qi < db.Len(); qi += 9 {
		q := db.Footprints[qi]
		want, serial := uc.TopKSketchStats(q, k)
		for _, workers := range []int{1, 2, 8} {
			var byMethod [5]search.SketchStats
			for m := MethodUserCentric; m <= MethodSketch; m++ {
				e := New(db, Options{Workers: workers, Method: m, UserCentric: uc, RoI: roi})
				got, err := e.topK(ctx, q, k, nil, workers, &byMethod[m])
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d method %d workers %d: diverged (err=%v)", qi, m, workers, err)
				}
				var again search.SketchStats
				if _, err := e.topK(ctx, q, k, nil, workers, &again); err != nil || again != byMethod[m] {
					t.Fatalf("query %d method %d workers %d: counts %v then %v", qi, m, workers, byMethod[m], again)
				}
				if st := byMethod[m]; st.Refined > st.Scored || st.Scored > st.Candidates {
					t.Fatalf("query %d method %d workers %d: inconsistent counts %v", qi, m, workers, st)
				}
			}
			if byMethod[MethodUserCentric] != byMethod[MethodSketch] {
				t.Fatalf("query %d workers %d: default method did %v, method=sketch %v",
					qi, workers, byMethod[MethodUserCentric], byMethod[MethodSketch])
			}
			if workers == 1 {
				if byMethod[MethodUserCentric] != serial {
					t.Fatalf("query %d: one-worker engine did %v, the serial sketch search %v", qi, byMethod[MethodUserCentric], serial)
				}
				candidates += serial.Candidates
				refined += serial.Refined
			}
		}
	}
	if candidates == 0 || refined*4 > candidates {
		t.Fatalf("default method refined %d of %d candidates on Part A; the bound is not filtering", refined, candidates)
	}
}
