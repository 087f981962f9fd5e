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

// TestSketchAutoEnable: an engine holds no sketch state of its own — the
// loop asks the database per query — so one built over a sketch-less
// database starts bounding the moment the layer is enabled under it
// (what geobench's resolution sweep does to one index, once per G), and
// answers LinearScan's bytes before and after.
func TestSketchAutoEnable(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	db := testDB(t, rng, 150)
	if db.SketchesEnabled() {
		t.Fatal("fresh database unexpectedly has sketches")
	}
	e := New(db, search.NewUserCentricIndex(db, search.BuildSTR, 0), 4)
	lin := search.NewLinearScan(db)
	for _, g := range []int{0, 16, 64} {
		if g > 0 {
			db.EnableSketches(g, 0)
		}
		for trial := 0; trial < 10; trial++ {
			q := db.Footprints[rng.Intn(db.Len())]
			if got, want := e.TopK(q, 5), lin.TopK(q, 5); !reflect.DeepEqual(got, want) {
				t.Fatalf("G=%d trial %d: diverged from LinearScan\ngot:  %v\nwant: %v", g, trial, got, want)
			}
		}
	}
}

// partDB builds a small database of the named part preset the way
// geobench does: the preset's generator, Algorithm 1, unit weights.
func partDB(t *testing.T, part string, scale float64) *store.FootprintDB {
	t.Helper()
	cfg, err := synth.PartConfig(part, scale)
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

// TestEveryMethodRefinesByBound: on Part A every source's candidates
// are bounded and refined by the one loop — the serial spelling's work
// counts on every worker count, the same counts for sources nominating
// the same users, a number of Algorithm 4 joins well below the
// candidate count. Counts are a function of (query, k), so two runs
// agree exactly.
func TestEveryMethodRefinesByBound(t *testing.T) {
	db := partDB(t, "A", 0.002)
	db.EnableSketches(0, 0)
	srcs := sources(t, db)
	uc := srcs["user-centric"].(*search.UserCentricIndex)
	lin := search.NewLinearScan(db)
	ctx := context.Background()
	const k = 5
	var candidates, refined int
	for qi := 0; qi < db.Len(); qi += 9 {
		q := db.Footprints[qi]
		want := lin.TopK(q, k)
		_, serial := uc.TopKSketchStats(q, k)
		for _, workers := range []int{1, 2, 8} {
			did := map[string]search.SketchStats{}
			for name, src := range srcs {
				e := New(db, src, workers)
				var st, again search.SketchStats
				got, err := e.query(ctx, q, search.AdHoc, k, nil, &st)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d %s workers %d: diverged (err=%v)", qi, name, workers, err)
				}
				if _, err := e.query(ctx, q, search.AdHoc, k, nil, &again); err != nil || again != st {
					t.Fatalf("query %d %s workers %d: counts %v then %v", qi, name, workers, st, again)
				}
				if st.Refined > st.Scored || st.Scored > st.Candidates {
					t.Fatalf("query %d %s workers %d: inconsistent counts %v", qi, name, workers, st)
				}
				did[name] = st
			}
			// The three RoI-level sources nominate the users with an
			// intersecting RoI, whatever they index them with.
			if did["iterative"] != did["batch"] || did["iterative"] != did["grid"] {
				t.Fatalf("query %d workers %d: iterative did %v, batch %v, grid %v",
					qi, workers, did["iterative"], did["batch"], did["grid"])
			}
			if did["user-centric"] != serial {
				t.Fatalf("query %d workers %d: the engine did %v, the serial sketch search %v", qi, workers, did["user-centric"], serial)
			}
			if workers == 1 {
				candidates += serial.Candidates
				refined += serial.Refined
			}
		}
	}
	if candidates == 0 || refined*4 > candidates {
		t.Fatalf("user-centric refined %d of %d candidates on Part A; the bound is not filtering", refined, candidates)
	}
}
