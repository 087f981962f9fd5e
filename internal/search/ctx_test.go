package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
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
// database — the oracle's own loop, and the one loop over each source,
// serial and on four workers — so the contract tests cover them
// uniformly.
func ctxVariants(t *testing.T, db *store.FootprintDB) map[string]func(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	if !db.SketchesEnabled() {
		db.EnableSketches(0, 0)
	}
	variants := map[string]func(ctx context.Context, q core.Footprint, k int) ([]Result, error){
		"linear": NewLinearScan(db).TopKCtx,
	}
	for name, src := range testSources(t, db) {
		for _, workers := range []int{1, 4} {
			variants[fmt.Sprintf("%s/workers=%d", name, workers)] = func(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
				return TopK(ctx, db, src, q, k, nil, workers, nil)
			}
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
