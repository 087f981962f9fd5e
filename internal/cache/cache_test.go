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

// The LRU entry is still the victim, but a newcomer replaces it only
// when strictly more frequent: seen as often as the victim, its answer
// goes back to its caller unstored and counts as rejected.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	ctx := context.Background()
	put := func(q string) bool {
		_, hit, _ := c.GetOrCompute(ctx, key(1, q), func() (any, error) { return q, nil })
		return hit
	}
	put("a")
	put("b")
	// Touch "a" so "b" is the LRU victim when "c" lands.
	if !put("a") {
		t.Fatal("warm entry missed")
	}
	if put("c") {
		t.Fatal("new key hit")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Evictions != 0 || c.Len() != 2 {
		t.Fatalf("c, as frequent as the victim b, was admitted: %+v", st)
	}
	if _, ok := c.Get(key(1, "c")); ok {
		t.Fatal("rejected answer stored")
	}
	// Its second request makes "c" more frequent than "b": it replaces
	// the LRU victim, not the warmer "a".
	if put("c") {
		t.Fatal("rejected answer hit")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Evictions != 1 || c.Len() != 2 {
		t.Fatalf("after c's second request: %+v", st)
	}
	for q, want := range map[string]bool{"a": true, "b": false, "c": true} {
		if _, ok := c.Get(key(1, q)); ok != want {
			t.Fatalf("%q cached = %v, want %v", q, ok, want)
		}
	}
}

// A key read three times survives a scan of ten times the capacity in
// one-off keys, none of which is more frequent than it. Under plain
// LRU the scan's first capacity keys push it out.
func TestScanResistance(t *testing.T) {
	const capacity = 64
	c := New(capacity)
	ctx := context.Background()
	compute := func() (any, error) { return "v", nil }
	for i := 0; i < 3; i++ {
		c.GetOrCompute(ctx, key(1, "hot"), compute)
	}
	for i := 0; i < 10*capacity; i++ {
		c.GetOrCompute(ctx, key(1, fmt.Sprintf("scan%d", i)), compute)
	}
	if _, ok := c.Get(key(1, "hot")); !ok {
		t.Fatalf("the three-times key was scanned out: %+v", c.Stats())
	}
	if st := c.Stats(); st.Rejected == 0 || st.Entries != capacity {
		t.Fatalf("the scan was admitted wholesale: %+v", st)
	}
}

// A cache with room admits every answer: a miss followed by a
// GetOrCompute without a compute function hits, the pattern of the
// benchmark's cache layer.
func TestMissThenHitWithRoom(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		q := fmt.Sprintf("q%d", i)
		if _, hit, _ := c.GetOrCompute(ctx, key(1, q), func() (any, error) { return q, nil }); hit {
			t.Fatalf("%s: first call hit", q)
		}
		if v, hit, err := c.GetOrCompute(ctx, key(1, q), nil); err != nil || !hit || v != q {
			t.Fatalf("%s: v=%v hit=%v err=%v", q, v, hit, err)
		}
	}
	if st := c.Stats(); st.Rejected != 0 || st.Entries != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// Popularity is counted without the epoch, so it outlives the purge at
// a publish: a key read often in epoch 1 is admitted in epoch 2 over a
// colder victim, where a cold newcomer is not.
func TestAdmissionRemembersAcrossPurge(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	compute := func() (any, error) { return "v", nil }
	for i := 0; i < 5; i++ {
		c.GetOrCompute(ctx, key(1, "hot"), compute)
	}
	c.Purge(2)
	for i := 0; i < 4; i++ {
		c.GetOrCompute(ctx, key(2, fmt.Sprintf("cold%d", i)), compute)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d after filling epoch 2", c.Len())
	}
	c.GetOrCompute(ctx, key(2, "newcomer"), compute)
	if st := c.Stats(); st.Rejected != 1 || st.Evictions != 0 {
		t.Fatalf("a cold newcomer replaced a cold victim: %+v", st)
	}
	c.GetOrCompute(ctx, key(2, "hot"), compute)
	if _, ok := c.Get(key(2, "hot")); !ok {
		t.Fatalf("the epoch-1 favourite was not admitted in epoch 2: %+v", c.Stats())
	}
	if st := c.Stats(); st.Evictions != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Get and GetOrCompute from many goroutines over more keys than fit,
// with purges in between: admission runs on every insert, and every
// answer is the key's own. Run under -race.
func TestConcurrentAdmission(t *testing.T) {
	c := New(8)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				epoch := uint64(1 + i/500)
				q := fmt.Sprintf("q%d", (i*(g+1))%(3+i%40))
				if v, ok := c.Get(key(epoch, q)); ok && v != q {
					t.Errorf("Get(%s) = %v", q, v)
					return
				}
				v, _, err := c.GetOrCompute(ctx, key(epoch, q), func() (any, error) { return q, nil })
				if err != nil || v != q {
					t.Errorf("GetOrCompute(%s) = %v, %v", q, v, err)
					return
				}
				if g == 0 && i%500 == 499 {
					c.Purge(epoch + 1)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Rejected == 0 || st.Hits == 0 || st.Entries > 8 {
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
