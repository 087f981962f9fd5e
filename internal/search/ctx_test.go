package search

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/sketch"
	"geofootprint/internal/store"
)

// testSources lists every candidate source over one database.
func testSources(t *testing.T, db *store.FootprintDB) map[string]Source {
	t.Helper()
	roi := NewRoIIndex(db, BuildSTR, 0)
	gix, err := NewGridIndex(db, geom.Rect{MaxX: 1, MaxY: 1}, 32)
	if err != nil {
		t.Fatalf("NewGridIndex: %v", err)
	}
	return map[string]Source{
		"all-users":    AllUsers(db),
		"iterative":    roi.Iterative(),
		"batch":        roi.Batch(),
		"user-centric": NewUserCentricIndex(db, BuildSTR, 0),
		"grid":         gix,
	}
}

// ctxVariants enumerates every context-taking search over one
// database — the oracle's own loop, and the one loop over each
// source — so the contract tests cover them uniformly.
func ctxVariants(t *testing.T, db *store.FootprintDB) map[string]func(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	if !db.SketchesEnabled() {
		db.EnableSketches(0, 0)
	}
	variants := map[string]func(ctx context.Context, q core.Footprint, k int) ([]Result, error){
		"linear": NewLinearScan(db).TopKCtx,
	}
	for name, src := range testSources(t, db) {
		variants[name] = func(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
			return TopK(ctx, db, src, q, AdHoc, k, nil, nil)
		}
	}
	return variants
}

// Every Ctx variant refuses an already-cancelled context: nil results
// and the context's error.
func TestCtxPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	db := testDB(t, rng, 300)
	q := clusteredFootprints(rng, 1, 10)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, fn := range ctxVariants(t, db) {
		res, err := fn(ctx, q, 10)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Errorf("%s: cancelled query returned %d results", name, len(res))
		}
	}
}

// Every Ctx variant reports an expired deadline as DeadlineExceeded.
func TestCtxExpiredDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	db := testDB(t, rng, 200)
	q := clusteredFootprints(rng, 1, 10)[0]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	for name, fn := range ctxVariants(t, db) {
		if _, err := fn(ctx, q, 10); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
	}
}

// Under a background context every Ctx variant returns exactly what
// the reference scoring returns — the wrappers and the Ctx bodies are
// one implementation.
func TestCtxBackgroundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	db := testDB(t, rng, 400)
	queries := clusteredFootprints(rng, 5, 10)
	variants := ctxVariants(t, db)
	for i, q := range queries {
		want := referenceTopK(db, q, 10)
		for name, fn := range variants {
			got, err := fn(context.Background(), q, 10)
			if err != nil {
				t.Fatalf("%s query %d: %v", name, i, err)
			}
			sameRanking(t, name, got, want)
		}
	}
}

// countdownCtx reports cancellation from its n-th Err call on.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// pooledAccumulatorClean takes an accumulator off the pool and fails
// unless it is all +0 with nothing remembered — what every user of the
// pool promises to leave behind, cancelled or not.
func pooledAccumulatorClean(t *testing.T, when string, users int) {
	t.Helper()
	acc := acquireAccumulator(users)
	for u, v := range acc.sum {
		if math.Float64bits(v) != 0 {
			t.Fatalf("%s: pooled accumulator holds %v for user %d", when, v, u)
		}
	}
	if len(acc.touched) != 0 {
		t.Fatalf("%s: pooled accumulator remembers %d users", when, len(acc.touched))
	}
	accumulatorPool.Put(acc)
}

// TestCtxCancelledMidBound cancels a query between two polls of the
// posting-list bound step and of each accumulating source: the call
// returns the context's error and no results, the accumulator it used
// goes back to the pool zeroed, and the next query — which draws that
// accumulator — returns LinearScan's bytes.
func TestCtxCancelledMidBound(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	db := testDB(t, rng, 900)
	db.EnableSketches(0, 0)
	ready, post := transposed(t, db)
	// A query over the whole hotspot map: every user is a candidate and
	// every source visits far more than one poll stride of entries.
	var q core.Footprint
	for _, f := range db.Footprints[:40] {
		q = append(q, f...)
	}
	core.SortByMinX(q)
	qnorm := core.Norm(q)
	qsk := sketch.Build(q, db.SketchParams)
	want := NewLinearScan(db).TopK(q, 10)
	if len(want) == 0 {
		t.Fatal("the query matches nobody")
	}
	followUp := func(when string) {
		t.Helper()
		pooledAccumulatorClean(t, when, db.Len())
		for name, src := range testSources(t, db) {
			got, err := TopK(context.Background(), ready, src, q, AdHoc, 10, nil, nil)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, then %s: %v (err %v), LinearScan %v", when, name, got, err, want)
			}
		}
	}

	cands, _ := AllUsers(db).Nominate(context.Background(), q, nil)
	got, err := boundByPostings(&countdownCtx{Context: context.Background(), left: 2}, ready, post, cands, &qsk, qnorm, nil)
	if err != context.Canceled || got != nil {
		t.Fatalf("bound step cancelled at its third poll returned %d bounds, err %v", len(got), err)
	}
	followUp("cancelled mid-bound")

	for name, src := range testSources(t, db) {
		if name == "all-users" || name == "user-centric" {
			continue // they never poll
		}
		got, err := src.Nominate(&countdownCtx{Context: context.Background(), left: 2}, q, nil)
		if err != context.Canceled || got != nil {
			t.Fatalf("%s cancelled at its third poll nominated %d users, err %v", name, len(got), err)
		}
		followUp("cancelled mid-" + name)
	}
}

// TestCtxPollsBeforeSeed: the seed's joins have a poll of their own in
// front of them, so a query cancelled after its bound step joins
// nothing — even one whose seed would join every candidate and leave
// no refinement block to poll. A full run of such a query polls exactly
// at entry, once per stride of the bound step, before the seed and
// before returning; cancelled at any of them it returns no answer.
func TestCtxPollsBeforeSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	db := testDB(t, rng, 300)
	db.EnableSketches(0, 0)
	q := db.Footprints[7]
	k := db.Len() + 1 // the seed takes every candidate
	want := NewLinearScan(db).TopK(q, k)
	boundPolls := (db.Len() + cancelStride - 1) / cancelStride
	full := 1 + boundPolls + 2
	for left := 0; left <= full; left++ {
		got, err := TopK(&countdownCtx{Context: context.Background(), left: left}, young(db), AllUsers(db), q, AdHoc, k, nil, nil)
		if left < full && (err != context.Canceled || got != nil) {
			t.Fatalf("cancelled at poll %d of %d: %d results, err %v", left+1, full, len(got), err)
		}
		if left == full && (err != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("with all %d polls passing: %v (err %v), LinearScan %v", full, got, err, want)
		}
	}
}
