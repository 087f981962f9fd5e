package search

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/sketch"
)

// TestTopKSketchExactlyMatchesLinear demands byte-identical output —
// same IDs, same float64 scores, same order — from TopKSketch and
// LinearScan.TopK. Both run Algorithm 4 with identical argument order
// on every candidate they refine, so the scores agree bit-for-bit, and
// the bound-pruning proof (sketchsearch.go) guarantees the refined set
// determines the same collector contents.
func TestTopKSketchExactlyMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, g := range []int{8, 32, 64} {
		db := testDB(t, rng, 180)
		db.EnableSketches(g, 0)
		linear := NewLinearScan(db)
		uc := NewUserCentricIndex(db, BuildSTR, 16)
		for trial := 0; trial < 30; trial++ {
			var q core.Footprint
			if trial%2 == 0 {
				q = db.Footprints[rng.Intn(db.Len())]
			} else {
				q = clusteredFootprints(rng, 1, 12)[0]
			}
			k := []int{1, 5, 50}[trial%3]
			want := linear.TopK(q, k)
			got, st := uc.TopKSketchStats(q, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("G=%d trial %d k=%d: sketch results differ\ngot:  %v\nwant: %v\nstats: %v",
					g, trial, k, got, want, st)
			}
			if st.Refined > st.Scored || st.Scored > st.Candidates {
				t.Fatalf("G=%d trial %d: inconsistent stats %v", g, trial, st)
			}
			// The filter list the ledger replays: every scored
			// candidate, best bound first, ties by dense index.
			qsk := sketch.Build(q, db.SketchParams)
			scored := uc.SketchCandidates(q, &qsk, core.Norm(q))
			if len(scored) != st.Scored || !sort.SliceIsSorted(scored, func(i, j int) bool { return boundBefore(scored[i], scored[j]) }) {
				t.Fatalf("G=%d trial %d: SketchCandidates returned %d candidates (stats say %d), sorted=%v",
					g, trial, len(scored), st.Scored, len(scored) == st.Scored)
			}
		}
	}
}

// TestTopKSketchDegenerateQueries mirrors the Searcher edge cases.
func TestTopKSketchDegenerateQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := testDB(t, rng, 30)
	db.EnableSketches(32, 0)
	uc := NewUserCentricIndex(db, BuildSTR, 0)
	degenerate := core.Footprint{{Rect: geom.Rect{MinX: 1, MinY: 1, MaxX: 1, MaxY: 1}, Weight: 1}}
	if got := uc.TopKSketch(degenerate, 5); got != nil {
		t.Errorf("zero-norm query returned %v, want nil", got)
	}
	if got := uc.TopKSketch(nil, 5); got != nil {
		t.Errorf("empty query returned %v, want nil", got)
	}
	if got := uc.TopKSketch(db.Footprints[0], 0); got != nil {
		t.Errorf("k=0 returned %v, want nil", got)
	}
	far := core.Footprint{{Rect: geom.Rect{MinX: 50, MinY: 50, MaxX: 51, MaxY: 51}, Weight: 1}}
	if got := uc.TopKSketch(far, 5); len(got) != 0 {
		t.Errorf("disjoint query returned %v", got)
	}
}

// TestTopKSketchRequiresEnable documents the contract: calling the
// sketch search on a database without the layer is a programming
// error, not a silent fallback.
func TestTopKSketchRequiresEnable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := testDB(t, rng, 10)
	uc := NewUserCentricIndex(db, BuildSTR, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("TopKSketch on a sketch-less database did not panic")
		}
	}()
	uc.TopKSketch(db.Footprints[0], 3)
}

// TestBoundOrderMatchesFullSort: the lazy order hands out exactly the
// sequence a full sort by (bound desc, dense index asc) produces, one
// candidate at a time, on lists where most
// bounds are equal, so the tie-break carries the order. The refinement
// count of every query is a function of this sequence.
func TestBoundOrderMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	bounds := []float64{1, 1, 0.75, 0.5, 0.5, 0.5, 0.25, 1e-300}
	for it := 0; it < 300; it++ {
		n := rng.Intn(700)
		if it < 4 {
			n = it // 0, 1, 2, 3 candidates
		}
		scored := make([]SketchCandidate, n)
		for i, u := range rng.Perm(n) {
			scored[i] = SketchCandidate{User: u, Bound: bounds[rng.Intn(len(bounds))]}
			if it%5 == 0 {
				scored[i].Bound = 1 // a database without sketches: every bound equal
			}
		}
		want := append([]SketchCandidate(nil), scored...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Bound != want[j].Bound {
				return want[i].Bound > want[j].Bound
			}
			return want[i].User < want[j].User
		})
		order := OrderByBound(scored)
		got := make([]SketchCandidate, 0, n)
		for order.Len() > 0 {
			got = append(got, order.Next())
			if order.Len() != n-len(got) {
				t.Fatalf("iteration %d: Len() = %d after %d of %d", it, order.Len(), len(got), n)
			}
		}
		if !reflect.DeepEqual(got, want) && n > 0 {
			t.Fatalf("iteration %d (n=%d): lazy order diverges from the full sort", it, n)
		}
	}
}

// TestBoundOrderAllocationFree pins the order kernels — heap
// construction and the pops — at zero allocations.
func TestBoundOrderAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	src := make([]SketchCandidate, 2000)
	for i := range src {
		src[i] = SketchCandidate{User: i, Bound: rng.Float64()}
	}
	scored := make([]SketchCandidate, len(src))
	if avg := testing.AllocsPerRun(50, func() {
		copy(scored, src)
		order := OrderByBound(scored)
		for i := 0; i < 356; i++ {
			order.Next()
		}
	}); avg != 0 {
		t.Fatalf("the bound order allocates %v times per run, want 0", avg)
	}
}

// TestSketchBoundWithoutSketchLayer: a database without the layer gives
// every candidate the trivial bound 1, in candidate order — the same
// refine loop then joins all of them — and the bound step observes
// cancellation on either kind of database.
func TestSketchBoundWithoutSketchLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := testDB(t, rng, 600)
	q := db.Footprints[5]
	cands := rng.Perm(db.Len())
	scored, err := SketchBound(context.Background(), db, cands, q, AdHoc, core.Norm(q), nil)
	if err != nil || len(scored) != len(cands) {
		t.Fatalf("sketch-less bound: %d of %d candidates, err=%v", len(scored), len(cands), err)
	}
	for i, c := range scored {
		if c.User != cands[i] || c.Bound != 1 {
			t.Fatalf("candidate %d: %+v, want user %d with bound 1", i, c, cands[i])
		}
	}
	db.EnableSketches(0, 0)
	bounded, err := SketchBound(context.Background(), db, cands, q, AdHoc, core.Norm(q), nil)
	if err != nil || len(bounded) == 0 || len(bounded) >= len(cands) {
		t.Fatalf("sketch bound kept %d of %d candidates, err=%v; want some dropped at bound 0", len(bounded), len(cands), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := SketchBound(ctx, db, cands, q, AdHoc, core.Norm(q), nil); err != context.Canceled || got != nil {
		t.Fatalf("cancelled bound step returned %d candidates, err=%v", len(got), err)
	}
}
