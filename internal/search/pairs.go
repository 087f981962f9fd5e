package search

import (
	"container/heap"
	"context"
	"runtime"
	"sort"

	"geofootprint/internal/core"
	"geofootprint/internal/par"
)

// This file provides the similarity self-join: the globally most
// similar user pairs, a building block for the data-mining tasks the
// paper motivates (duplicate-visitor detection, social-tie candidates,
// seeding clusters).

// Pair is one ranked user pair (A < B by external ID) with its
// footprint similarity.
type Pair struct {
	A, B  int
	Score float64
}

// pairBetter orders pairs best-first: higher score, then smaller
// (A, B) for determinism.
func pairBetter(x, y Pair) bool {
	if x.Score != y.Score {
		return x.Score > y.Score
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// pairHeap is a min-heap whose root is the worst retained pair.
type pairHeap []Pair

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return pairBetter(h[j], h[i]) }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(Pair)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (h *pairHeap) offer(k int, p Pair) {
	if len(*h) < k {
		heap.Push(h, p)
		return
	}
	if pairBetter(p, (*h)[0]) {
		(*h)[0] = p
		heap.Fix(h, 0)
	}
}

// TopSimilarPairs returns the k most similar distinct user pairs in
// the index's database, best-first, with positive similarity only.
// The user-centric R-tree prunes the quadratic pair space: for each
// user only users whose footprint MBR intersects theirs are refined
// (with Algorithm 4), and every unordered pair is scored exactly once.
// The neighbours come from ix.Candidates, so on an epoch's shared index
// the users written since its base are tested on their current MBRs.
// Runs on `workers` goroutines (GOMAXPROCS if <= 0), each polling ctx
// every cancelStride joins; it returns ctx.Err() when cancelled.
//
//geo:cancellable
func TopSimilarPairs(ctx context.Context, ix *UserCentricIndex, k, workers int) ([]Pair, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	db := ix.db
	n := db.Len()
	if k <= 0 || n < 2 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	locals := make([]pairHeap, workers)
	par.For(n, workers, 1, func(w, lo, hi int) {
		var fu core.Footprint
		var near []int
		joins := 0
		for u := lo; u < hi && ctx.Err() == nil; u++ {
			if db.Norm(u) == 0 {
				continue
			}
			// Each unordered pair {v, u}, v < u, is scored once, here,
			// with the lower index in the R role: stored row v against
			// u's row as the query.
			fu = db.AppendRow(fu[:0], u)
			nu := db.Norm(u)
			near = ix.Candidates(db.MBR(u), near[:0])
			for _, v := range near {
				if v >= u {
					continue
				}
				if joins++; joins&(cancelStride-1) == 0 && ctx.Err() != nil {
					break
				}
				sim := db.UserSimilarity(v, fu, nu)
				if sim > 0 {
					a, b := db.IDs[u], db.IDs[v]
					if b < a {
						a, b = b, a
					}
					locals[w].offer(k, Pair{A: a, B: b, Score: sim})
				}
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var all []Pair
	//lint:ignore ctxcancel one heap of at most k pairs per worker
	for _, l := range locals {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return pairBetter(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}
