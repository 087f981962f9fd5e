package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForVisitsEveryIndexOnce: every index of [0, n) is handed out
// exactly once, every chunk is non-empty and either the whole range or
// at most a grain long, and
// the worker number stays in [0, workers) — GOMAXPROCS for workers
// <= 0. Run under -race, it also checks that For returns only after
// every chunk's writes.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	const grain = 7
	for _, n := range []int{0, 1, grain - 1, grain, grain + 1, 10*grain + 3} {
		for _, workers := range []int{0, 1, 2, 8} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				limit := workers
				if limit <= 0 {
					limit = 1 << 30
				}
				visits := make([]atomic.Int32, n)
				var bad atomic.Value
				For(n, workers, grain, func(w, lo, hi int) {
					whole := lo == 0 && hi == n
					if w < 0 || w >= limit || lo < 0 || hi > n || (n > 0 && hi <= lo) || (hi-lo > grain && !whole) {
						bad.Store(fmt.Sprintf("worker %d ran [%d, %d)", w, lo, hi))
					}
					for i := lo; i < hi; i++ {
						visits[i].Add(1)
					}
				})
				if msg := bad.Load(); msg != nil {
					t.Fatal(msg)
				}
				for i := range visits {
					if got := visits[i].Load(); got != 1 {
						t.Fatalf("index %d visited %d times", i, got)
					}
				}
			})
		}
	}
}

// TestForInlineWithinOneGrain: with one worker, or no more items than
// one grain, the whole range is one call on the calling goroutine.
func TestForInlineWithinOneGrain(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{0, 8}, {5, 8}, {16, 8}, {1000, 1}} {
		calls := 0
		For(c.n, c.workers, 16, func(w, lo, hi int) {
			calls++ // unsynchronised: -race fails if this runs off the caller
			if w != 0 || lo != 0 || hi != c.n {
				t.Errorf("n=%d workers=%d: worker %d ran [%d, %d)", c.n, c.workers, w, lo, hi)
			}
		})
		if calls != 1 {
			t.Errorf("n=%d workers=%d: %d calls, want 1", c.n, c.workers, calls)
		}
	}
}
