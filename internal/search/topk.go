package search

import (
	"context"
	"sync"

	"geofootprint/internal/core"
	"geofootprint/internal/store"
	"geofootprint/internal/topk"
)

// This file is the one top-k loop. Every search — the serial spellings
// of this package, the engine's queries and batches, a replicated
// router's segment legs — is TopK over some Source, on the calling
// goroutine: the source's candidates, minus those outside the
// restriction, bounded by their sketch (SketchBound), are refined with
// Algorithm 4 best bound first, and the loop stops once no remaining
// bound can reach the top k. The bound step is a walk down the posting
// lists of the query's cells, or a gather per candidate where that is
// shorter (sketchsearch.go); the seed is k joins; the order costs a heap
// pop per refined candidate. A query is ≈ 130 joins on the ledger
// corpus at k = 5 — too short to split across goroutines, so
// parallelism lives across queries (engine.TopKBatch, the server's
// concurrent requests), never within one.
//
// The seed (Refiner.Seed) comes first: the k best bounds, selected in
// one O(n log k) pass, are joined into the query's one collector, and
// their k-th exact score τ₀ prices every other candidate before any
// ordering is paid for. A candidate whose bound is below τ₀ cannot
// enter the top k — sim ≤ bound < τ₀ ≤ the final threshold, and k users
// already score at least τ₀ — so it is dropped outright; those at τ₀ or
// above stay (an equal score can still win its ID tie-break). On a
// typical miss that leaves ≈ 6 % of the bounds for the order to heapify
// (140 of 2 370 on the ledger corpus at k = 5).
//
// The order is drawn lazily, one candidate at a time (BoundOrder: a
// query that refines 200 of 2 500 candidates never orders the other
// 2 300), into the same collector. Exactness of the early exit: the loop
// stops at candidate c once the collector holds k results and
// c.Bound < its threshold. The bound dominates the similarity, so
// sim(c) ≤ c.Bound < the k-th score held — k already-offered users beat
// c by strictly greater score, under the (score desc, ID asc) total
// order — and every candidate after c in the bound-descending order has
// a bound, and so a similarity, no greater. None of them can enter the
// top k, and stopping (strict <, so an equal score still gets its ID
// tie-break) cannot change the answer: the collector retains the
// unique top k of everything offered, which is LinearScan's ranking
// byte for byte. The seed is a function of the bounds and the order is
// total, so the number of joins run — seed included — is a function of
// (query, k), not of scheduling or of any worker count.
//
// Without a sketch layer every bound is 1: the seed joins k arbitrary
// — lowest-index — candidates, no bound falls below τ₀ ≤ 1, the loop
// never stops early, and it joins every candidate: the paper's methods
// as published.

// Restrict narrows a query to part of the corpus: the users whose
// entry in SegOf — one segment number per dense user index — lies in
// [Lo, Hi). The server builds one from a segment query (a replicated
// router's leg); a nil *Restrict is the whole corpus.
type Restrict struct {
	// Partition names what SegOf numbers, for the result cache: two
	// restrictions with equal Partition, Lo and Hi select the same users
	// of an epoch.
	Partition string
	SegOf     []uint16
	Lo, Hi    uint16
}

// filter drops the candidates outside the restriction, compacting
// cands in place. It is the one point where a segment query differs
// from a whole-corpus one: whatever generated the candidates, and
// whatever bounds and refines them afterwards, sees a shorter list.
//
//geo:hotpath
func (in *Restrict) filter(cands []int) []int {
	if in == nil {
		return cands
	}
	kept := cands[:0]
	for _, u := range cands {
		if s := in.SegOf[u]; s >= in.Lo && s < in.Hi {
			kept = append(kept, u)
		}
	}
	return kept
}

// scratch is the per-query working memory the pool recycles: the
// candidate list, their bounds (whose survivors become the order's
// heap) and the seed's selection (the bound
// step's per-user accumulator has its own pool, accumulator.go, shared
// with the accumulating sources). With every method bounding thousands
// of candidates per query, allocating these afresh would scale the
// garbage with the request rate.
type scratch struct {
	cands  []int
	scored []SketchCandidate
	best   []SketchCandidate
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// AdHoc is the row argument of TopK and SketchBound for a query
// footprint that is not a stored user's.
const AdHoc = -1

// queryNorm is q's norm: the stored one when q is db's row `row`
// (db.Norms[row] is core.Norm(db.Row(row)), bit for bit).
func queryNorm(db *store.FootprintDB, q core.Footprint, row int) float64 {
	if row == AdHoc {
		return core.Norm(q)
	}
	return db.Norms[row]
}

// TopK returns the k users of db most similar to q among those src
// nominates and `in` selects (nil: all of them), best first, on the
// calling goroutine. The answer is LinearScan's ranking with the users
// outside `in` removed, byte for byte, whatever the source. row is the
// dense index of the stored user whose footprint q is — its norm and
// sketch are then read from db instead of computed — or AdHoc. st, when
// non-nil, receives the work counts. Cancellation is polled at entry,
// inside the source and the bound step, before the seed's joins, every
// cancelStride joins after it and once more before returning; a
// cancelled query returns (nil, ctx.Err()), its collector discarded.
//
//geo:cancellable
func TopK(ctx context.Context, db *store.FootprintDB, src Source, q core.Footprint, row, k int, in *Restrict, st *SketchStats) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qnorm := queryNorm(db, q, row)
	if qnorm == 0 || k <= 0 {
		return nil, nil
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	cands, err := src.Nominate(ctx, q, sc.cands[:0])
	if err != nil {
		return nil, err
	}
	sc.cands = cands
	cands = in.filter(cands)
	scored, err := SketchBound(ctx, db, cands, q, row, qnorm, sc.scored[:0])
	if err != nil {
		return nil, err
	}
	sc.scored = scored
	if st != nil {
		st.Candidates, st.Scored = len(cands), len(scored)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := Refiner{Col: topk.New(k)}
	rest, best := r.Seed(db, scored, sc.best[:0], q, k, qnorm)
	sc.best = best
	order := OrderByBound(rest)
	for i := 0; order.Len() > 0; i++ {
		c := order.Next()
		if r.Col.Len() == k && c.Bound < r.Col.Threshold() {
			break
		}
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		r.join(db, c.User, q, qnorm)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st != nil {
		st.Refined = r.Refined
	}
	return r.Col.Results(), nil
}

// Refiner is one query's collector and how many Algorithm 4 joins it
// has run.
type Refiner struct {
	Col     *topk.Collector
	Refined int
}

// join runs the Algorithm 4 join of user u against q and offers a
// positive score to r's collector.
func (r *Refiner) join(db *store.FootprintDB, u int, q core.Footprint, qnorm float64) {
	r.Refined++
	if sim := db.UserSimilarity(u, q, qnorm); sim > 0 {
		r.Col.Offer(db.IDs[u], sim)
	}
}

// Seed joins the k best candidates of scored — first in the bound
// order — into r.Col, selecting them in one O(n log k) pass as a heap
// of the k best so far in best (the caller's buffer, returned for
// reuse). It returns, compacted in place in scored and in scored's
// order, the other candidates whose bound is at least τ₀, the k-th
// score the seed put in the collector (all of them when the collector
// holds fewer than k): the only ones left that can still enter the top
// k. With k or fewer candidates the seed joins them all and nothing is
// left.
func (r *Refiner) Seed(db *store.FootprintDB, scored, best []SketchCandidate, q core.Footprint, k int, qnorm float64) (rest, bestBuf []SketchCandidate) {
	if len(scored) <= k {
		for _, c := range scored {
			r.join(db, c.User, q, qnorm)
		}
		return scored[:0], best
	}
	// best is a heap with the worst of the k best at its root: a
	// candidate gets in only by beating it, which most do not.
	for _, c := range scored {
		switch {
		case len(best) < k:
			best = append(best, c)
			worstUp(best, len(best)-1)
		case boundBefore(c, best[0]):
			best[0] = c
			worstDown(best, 0)
		}
	}
	for _, c := range best {
		r.join(db, c.User, q, qnorm)
	}
	tau := 0.0 // every bound is positive
	if r.Col.Len() == k {
		tau = r.Col.Threshold()
	}
	// The order is total, so the seed is exactly the candidates at or
	// before its worst one.
	kth := best[0]
	rest = scored[:0]
	for _, c := range scored {
		if c.Bound >= tau && boundBefore(kth, c) {
			rest = append(rest, c)
		}
	}
	return rest, best
}

// worstUp and worstDown keep h a binary heap whose root is its last
// candidate in the bound order.
func worstUp(h []SketchCandidate, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !boundBefore(h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func worstDown(h []SketchCandidate, i int) {
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			return
		}
		if r := kid + 1; r < len(h) && boundBefore(h[kid], h[r]) {
			kid = r
		}
		if !boundBefore(h[i], h[kid]) {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}
