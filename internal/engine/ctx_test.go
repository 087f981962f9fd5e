package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
)

// Every method must refuse an already-cancelled context up front: no
// result, the context's own error, and no side effects on the engine.
func TestTopKCtxPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := testDB(t, rng, 400)
	q := clusteredFootprints(rng, 1, 12)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, src := range methods(t, db) {
		e := New(db, src, 4)
		res, err := e.TopKCtx(ctx, q, 10)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Errorf("%s: got %d results from a cancelled query, want none", name, len(res))
		}
		if _, err := e.TopKBatchCtx(ctx, []core.Footprint{q, q}, 10); !errors.Is(err, context.Canceled) {
			t.Errorf("%s batch: err = %v, want context.Canceled", name, err)
		}
	}
}

// A context past its deadline fails with DeadlineExceeded — the error
// the server maps to a 503.
func TestTopKCtxExpiredDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	db := testDB(t, rng, 200)
	q := clusteredFootprints(rng, 1, 12)[0]
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, src := range methods(t, db) {
		e := New(db, src, 4)
		if _, err := e.TopKCtx(ctx, q, 10); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
	}
}

// A cancelled query must not poison the engine: the very next query on
// the same engine returns LinearScan's exact ranking. Run under
// -race this also proves no abandoned worker is still writing.
func TestEngineUsableAfterCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := testDB(t, rng, 600)
	queries := clusteredFootprints(rng, 6, 12)
	lin := search.NewLinearScan(db)
	for name, src := range methods(t, db) {
		e := New(db, src, 4)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.TopKCtx(ctx, queries[0], 10); err == nil {
			t.Fatalf("%s: cancelled query succeeded", name)
		}
		for i, q := range queries {
			got := e.TopK(q, 10)
			want := lin.TopK(q, 10)
			if len(got) != len(want) {
				t.Fatalf("%s query %d after cancel: %d results, want %d", name, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s query %d after cancel: rank %d = %+v, want %+v", name, i, j, got[j], want[j])
				}
			}
		}
	}
}

// Cancelling mid-flight (from another goroutine, at a random moment)
// yields either the complete correct answer or a clean ctx error —
// never a partial or wrong ranking. The race detector guards the
// worker teardown.
func TestTopKCtxMidFlightCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	db := testDB(t, rng, 800)
	queries := clusteredFootprints(rng, 8, 12)
	lin := search.NewLinearScan(db)
	for name, src := range methods(t, db) {
		e := New(db, src, 4)
		for i, q := range queries {
			ctx, cancel := context.WithCancel(context.Background())
			go func(d time.Duration) {
				time.Sleep(d)
				cancel()
			}(time.Duration(rng.Intn(200)) * time.Microsecond)
			res, err := e.TopKCtx(ctx, q, 10)
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s query %d: unexpected error %v", name, i, err)
				}
				if res != nil {
					t.Fatalf("%s query %d: partial results alongside ctx error", name, i)
				}
			} else {
				want := lin.TopK(q, 10)
				if len(res) != len(want) {
					t.Fatalf("%s query %d: %d results, want %d", name, i, len(res), len(want))
				}
				for j := range res {
					if res[j] != want[j] {
						t.Fatalf("%s query %d: rank %d = %+v, want %+v", name, i, j, res[j], want[j])
					}
				}
			}
			cancel()
		}
	}
}

// pollCtx is a context that reports cancellation from its n-th Err()
// poll onwards — cancellation placed at an exact point of the query
// instead of at a random moment.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func cancelAtPoll(n int) *pollCtx {
	c := &pollCtx{Context: context.Background()}
	c.left.Store(int64(n))
	return c
}

// Cancellation observed at ANY poll of a query — the entry check, the
// candidate step, every stride of the bound step, every refinement
// block, the check before the merge — yields (nil, ctx.Err()); only a
// query whose every poll passed returns an answer, and it is the exact
// one. The database is sized so that the bound step polls more than
// once and the refinement runs several blocks.
func TestTopKCtxCancelAtEveryPoll(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	db := testDB(t, rng, 700)
	q := db.Footprints[11]
	lin := search.NewLinearScan(db)
	for name, src := range methods(t, db) {
		for _, workers := range []int{1, 2} {
			e := New(db, src, workers)
			// A context that never fires counts the polls of a full run.
			counter := cancelAtPoll(1 << 30)
			want, err := e.TopKCtx(counter, q, 300)
			polls := 1<<30 - int(counter.left.Load())
			if err != nil || !reflect.DeepEqual(want, lin.TopK(q, 300)) {
				t.Fatalf("%s workers=%d: uncancelled run wrong (err=%v)", name, workers, err)
			}
			// Entry, three strides of the bound step over 700 users, at
			// least one refinement block, the check before the merge.
			if name == "all-users" && polls < 6 {
				t.Fatalf("%s workers=%d: a full run polled only %d times; bound step or refinement blocks are not polling", name, workers, polls)
			}
			for n := 0; n < polls; n++ {
				res, err := e.TopKCtx(cancelAtPoll(n), q, 300)
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("%s workers=%d: cancelled at poll %d of %d: %d results, err=%v; want (nil, context.Canceled)",
						name, workers, n, polls, len(res), err)
				}
			}
			if res, err := e.TopKCtx(cancelAtPoll(polls), q, 300); err != nil || !reflect.DeepEqual(res, want) {
				t.Fatalf("%s workers=%d: run with exactly %d polls allowed: err=%v", name, workers, polls, err)
			}
		}
	}
}

// TopKBatchCtx under an uncancelled context is byte-identical to the
// non-context batch path, and a mid-batch cancel discards everything.
func TestTopKBatchCtxAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	db := testDB(t, rng, 300)
	queries := clusteredFootprints(rng, 16, 12)
	e := New(db, search.NewUserCentricIndex(db, search.BuildSTR, 0), 4)

	out, err := e.TopKBatchCtx(context.Background(), queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := e.TopKBatch(queries, 5)
	if len(out) != len(want) {
		t.Fatalf("batch sizes differ: %d vs %d", len(out), len(want))
	}
	for i := range out {
		for j := range out[i] {
			if out[i][j] != want[i][j] {
				t.Fatalf("query %d rank %d: %+v vs %+v", i, j, out[i][j], want[i][j])
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Microsecond)
		cancel()
	}()
	out2, err := e.TopKBatchCtx(ctx, queries, 5)
	if err != nil && out2 != nil {
		t.Fatal("cancelled batch returned partial results alongside the error")
	}
	cancel()
}
