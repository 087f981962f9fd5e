package search

import "sync"

// accumulator is a dense per-user sum with the list of users it was
// written for: sum[u] is indexed by dense user index and is all +0
// whenever the accumulator sits in the pool. The posting-list bound
// step fills sum and clears it by re-walking the lists it walked; the
// RoI sources add (user, contribution) pairs one at a time and clear
// through touched. It costs 8 bytes per user of the largest database
// served, per query in flight.
type accumulator struct {
	sum     []float64
	touched []int
}

var accumulatorPool = sync.Pool{New: func() any { return new(accumulator) }}

// acquireAccumulator returns an all-zero accumulator over at least n
// users. Whoever writes to it must zero what it wrote before putting it
// back (drain, or sketch.Postings.Clear); a query that cannot — it
// panicked — drops it.
//
//geo:hotpath
func acquireAccumulator(n int) *accumulator {
	a := accumulatorPool.Get().(*accumulator)
	if len(a.sum) < n {
		//lint:ignore hotalloc pool refill when a database has outgrown the pooled accumulator; amortised to zero by the sync.Pool (TestSourcesAllocationLean)
		a.sum = make([]float64, n)
	}
	return a
}

// add accumulates x into user u's sum, remembering u the first time.
// A user whose sum returns to exactly zero is remembered again on its
// next contribution; drain tolerates the repeat.
//
//geo:hotpath
func (a *accumulator) add(u int, x float64) {
	if a.sum[u] == 0 {
		a.touched = append(a.touched, u)
	}
	a.sum[u] += x
}

// drain appends to buf every user whose sum is positive, in the order
// add first saw them, zeroes every sum it visits — so a user listed
// twice is reported once — and returns the accumulator to the pool.
//
//geo:hotpath
func (a *accumulator) drain(buf []int) []int {
	for _, u := range a.touched {
		if a.sum[u] > 0 {
			buf = append(buf, u)
		}
		a.sum[u] = 0
	}
	a.touched = a.touched[:0]
	accumulatorPool.Put(a)
	return buf
}
