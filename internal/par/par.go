// Package par runs a loop over independent items on several
// goroutines: the one worker pool of the repository, for load, build
// and batch work whose items write disjoint places. A single query is
// never split across it (search.TopK runs on its caller).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn over [0, n) in chunks of grain items (the last may be
// shorter), handing the next chunk to whichever of `workers`
// goroutines finishes first, and returns when every chunk is done. w is
// the number of the worker running the chunk, in [0, workers), so fn
// can keep per-worker state in a slice indexed by it; the calling
// goroutine is worker 0. workers <= 0 selects GOMAXPROCS, and a grain
// below 1 is 1. With one worker, or n within one grain, For is
// fn(0, 0, n) on the calling goroutine.
func For(n, workers, grain int, fn func(w, lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	grain = max(grain, 1)
	workers = min(workers, (n+grain-1)/grain)
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			fn(w, lo, min(lo+grain, n))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
