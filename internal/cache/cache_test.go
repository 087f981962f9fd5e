package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

func key(epoch uint64, q string) Key {
	return Key{Epoch: epoch, Method: "user-centric", K: 5, Query: q}
}

func TestGetOrComputeHitMiss(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	calls := 0
	fn := func() (any, error) { calls++; return "v1", nil }

	v, hit, err := c.GetOrCompute(ctx, key(1, "a"), fn)
	if err != nil || hit || v != "v1" {
		t.Fatalf("first call: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute(ctx, key(1, "a"), fn)
	if err != nil || !hit || v != "v1" {
		t.Fatalf("second call: v=%v hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	// A different epoch is a different key: same query recomputes.
	if _, hit, _ := c.GetOrCompute(ctx, key(2, "a"), fn); hit {
		t.Fatal("hit across epochs")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	ctx := context.Background()
	put := func(q string) {
		c.GetOrCompute(ctx, key(1, q), func() (any, error) { return q, nil })
	}
	put("a")
	put("b")
	// Touch "a" so "b" is the LRU victim when "c" lands.
	if _, hit, _ := c.GetOrCompute(ctx, key(1, "a"), nil); !hit {
		t.Fatal("warm entry missed")
	}
	put("c")
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, hit, _ := c.GetOrCompute(ctx, key(1, "b"), func() (any, error) { return "b", nil }); hit {
		t.Fatal("LRU victim survived")
	}
	if st := c.Stats(); st.Evictions < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Purge drops superseded epochs wholesale and the raised floor rejects
// stale in-flight inserts.
func TestPurgeInvalidatesOldEpochs(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		q := fmt.Sprintf("q%d", i)
		c.GetOrCompute(ctx, key(1, q), func() (any, error) { return q, nil })
	}
	c.GetOrCompute(ctx, key(2, "new"), func() (any, error) { return "new", nil })
	c.Purge(2)
	if c.Len() != 1 {
		t.Fatalf("len after purge = %d, want 1", c.Len())
	}
	if _, hit, _ := c.GetOrCompute(ctx, key(2, "new"), func() (any, error) { return "recomputed", nil }); !hit {
		t.Fatal("current-epoch entry purged")
	}
	if st := c.Stats(); st.Purged != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// A computation that straddled the swap must not resurrect a dead
	// epoch's entry.
	c.GetOrCompute(ctx, key(1, "stale"), func() (any, error) { return "stale", nil })
	if c.Len() != 1 {
		t.Fatalf("stale-epoch insert admitted: len = %d", c.Len())
	}
}

// Concurrent identical misses coalesce into one computation; all
// callers observe the same value.
func TestSingleFlightDedup(t *testing.T) {
	c := New(4)
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	vals := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute(context.Background(), key(1, "hot"), func() (any, error) {
				calls.Add(1)
				<-release
				return "computed", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	// Let the goroutines pile onto the flight, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, v := range vals {
		if v != "computed" {
			t.Fatalf("waiter %d got %v", i, v)
		}
	}
}

// A waiter whose context expires abandons the flight with ctx's error;
// a failed flight is not cached and does not poison later callers.
func TestFlightErrorsAndContext(t *testing.T) {
	c := New(4)
	release := make(chan struct{})
	go func() {
		c.GetOrCompute(context.Background(), key(1, "slow"), func() (any, error) {
			<-release
			return nil, errors.New("engine failed")
		})
	}()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := c.GetOrCompute(ctx, key(1, "slow"), nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter err = %v", err)
	}
	close(release)
	time.Sleep(10 * time.Millisecond)
	// The error was not cached: the next caller computes fresh.
	v, hit, err := c.GetOrCompute(context.Background(), key(1, "slow"), func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("after failed flight: v=%v hit=%v err=%v", v, hit, err)
	}
}

// A compute function that panics must release its flight: the panic
// reaches the computing caller (the server's recovery middleware turns
// it into a 500), a waiter already parked on the flight returns
// promptly with a freshly computed value instead of blocking until its
// own deadline, and nothing was cached.
func TestPanickingComputeReleasesFlight(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	entered, boom := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.GetOrCompute(ctx, key(1, "boom"), func() (any, error) {
			close(entered)
			<-boom
			panic("engine bug")
		})
	}()
	<-entered
	type answer struct {
		v   any
		err error
	}
	waited := make(chan answer, 1)
	go func() {
		v, _, err := c.GetOrCompute(ctx, key(1, "boom"), func() (any, error) { return "fresh", nil })
		waited <- answer{v, err}
	}()
	// Give the waiter time to park on the flight; if it has not yet, it
	// computes afresh after the panic, which must work just the same.
	time.Sleep(10 * time.Millisecond)
	close(boom)
	if r := <-recovered; r != "engine bug" {
		t.Fatalf("computing caller recovered %v, want the compute function's panic", r)
	}
	select {
	case a := <-waited:
		if a.err != nil || a.v != "fresh" {
			t.Fatalf("waiter after a panicked flight: v=%v err=%v, want a fresh computation", a.v, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked on a flight whose compute function panicked")
	}
	// The waiter's value is cached; the panicked flight left nothing else.
	v, hit, err := c.GetOrCompute(ctx, key(1, "boom"), nil)
	if err != nil || !hit || v != "fresh" || c.Len() != 1 {
		t.Fatalf("after the panic: v=%v hit=%v err=%v len=%d", v, hit, err, c.Len())
	}
	// A key nobody waited on is computed afresh by its next caller.
	func() {
		defer func() { recover() }()
		c.GetOrCompute(ctx, key(1, "boom2"), func() (any, error) { panic("again") })
	}()
	if v, hit, err := c.GetOrCompute(ctx, key(1, "boom2"), func() (any, error) { return "second", nil }); err != nil || hit || v != "second" {
		t.Fatalf("second caller after a panic: v=%v hit=%v err=%v, want a fresh miss", v, hit, err)
	}
}

// FootprintKey is injective on well-formed footprints: regions, order
// and weights all land in the encoding.
func TestFootprintKey(t *testing.T) {
	r := func(x float64, w float64) core.Region {
		return core.Region{Rect: geom.Rect{MinX: x, MinY: 0, MaxX: x + 1, MaxY: 1}, Weight: w}
	}
	a := core.Footprint{r(0, 1), r(2, 1)}
	b := core.Footprint{r(0, 1), r(2, 2)} // weight differs
	c := core.Footprint{r(0, 1)}          // shorter
	if FootprintKey(a) == FootprintKey(b) || FootprintKey(a) == FootprintKey(c) {
		t.Fatal("distinct footprints collided")
	}
	same := core.Footprint{r(0, 1), r(2, 1)}
	if FootprintKey(a) != FootprintKey(same) {
		t.Fatal("equal footprints encoded differently")
	}
}
