package search

import (
	"context"
	"sync"

	"geofootprint/internal/core"
	"geofootprint/internal/store"
	"geofootprint/internal/topk"
)

// This file is the one top-k loop. Every search — the serial spellings
// of this package, the engine's parallel and batched queries, a
// replicated router's segment legs — is TopK over some Source: the
// source's candidates, minus those outside the restriction, bounded by
// their sketch (SketchBound), are refined with Algorithm 4 best bound
// first, and the loop stops once no remaining bound can reach the top
// k. The bound step, the seed and the order stay serial (a walk down
// the posting lists of the query's cells, or a gather per candidate
// where that is shorter — sketchsearch.go; k joins; a heap pop per
// refined candidate); the joins after the seed are sharded across the
// workers. Serial is workers = 1.
//
// The seed (Refiner.Seed) comes first: the k best bounds, selected in
// one O(n log k) pass, are joined into worker 0's collector, and their
// k-th exact score τ₀ prices every other candidate before any ordering
// is paid for. A candidate whose bound is below τ₀ cannot enter the
// top k — sim ≤ bound < τ₀ ≤ the final threshold, and k users already
// score at least τ₀ — so it is dropped outright; those at τ₀ or above
// stay (an equal score can still win its ID tie-break). On a typical
// miss that leaves ≈ 6 % of the bounds for the order to heapify (140 of
// 2 370 on the ledger corpus at k = 5).
//
// The order is drawn lazily, a block at a time (BoundOrder: a query
// that refines 200 of 2 500 candidates never orders the other 2 300).
// Within a block of workers·RefineBlock candidates the shards are
// STRIDED, not contiguous: worker w of W refines positions
// w, w+W, w+2W, … — and because every block's length but the last is a
// multiple of W, those are positions w, w+W, … of the whole
// bound-descending sequence, whatever the block size. Two consequences:
//
//   - Every worker's subsequence is itself bound-descending (any
//     subsequence of a descending list is), so the per-worker early
//     exit below is sound.
//   - Every worker sees high-bound candidates early, so its local
//     collector's threshold rises fast — with contiguous chunks, the
//     tail workers would hold only low-bound candidates and a nearly
//     empty heap, and could never exit early.
//
// Exactness of the worker-local early exit: a worker stops at
// candidate c once its local collector holds k results and
// c.Bound < local threshold. The bound dominates the similarity, so
// sim(c) ≤ c.Bound < the worker's k-th local score — meaning k
// already-offered users beat c by strictly greater score, under the
// global (score desc, ID asc) total order. Those k users exist in the
// global multiset too, so c is outside the global top k and skipping
// it (and, by descending bounds, everything after it in the worker's
// subsequence, in this block and every later one) cannot change the
// answer. Worker 0's collector starts with the seed's offers, which
// only makes its threshold — still a k-th score of users offered —
// rise sooner. Every global top-k result is necessarily in its
// worker's local top k, and a collector's retained set depends only on
// the multiset of its offers, so offering every worker's results to one
// collector reconstructs the exact answer — byte-identical to
// LinearScan, whose result is the unique top k under the strict total
// order. The loop ends when every worker has stopped or the order is
// drained; the seed is a function of the bounds, and each worker's
// stopping point depends only on its own subsequence, so the number of
// joins run — seed included — is a function of (query, k, workers),
// not of scheduling.
//
// Without a sketch layer every bound is 1: the seed joins k arbitrary
// — lowest-index — candidates, no bound falls below τ₀ ≤ 1, no worker
// ever stops early, and the same loop joins every candidate: the
// paper's methods as published.

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
// heap), the seed's selection and the block being refined (the bound
// step's per-user accumulator has its own pool, accumulator.go, shared
// with the accumulating sources). With every method bounding thousands
// of candidates per query, allocating these afresh would scale the
// garbage with the request rate.
type scratch struct {
	cands  []int
	scored []SketchCandidate
	best   []SketchCandidate
	block  []SketchCandidate
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// minShard is the smallest number of refinement candidates worth
// handing to an extra worker; below it, goroutine handoff costs more
// than the Algorithm 4 joins it would offload.
const minShard = 32

// shardWorkers sizes the within-query fan-out over n candidates: at
// most one worker per minShard candidates, capped by the pool size, and
// never fewer than the calling goroutine.
func shardWorkers(workers, n int) int {
	return max(1, min(workers, n/minShard))
}

// RefineBlock is how many candidates one worker refines between two
// draws from the order (and two cancellation polls): large enough that
// a typical query — a few hundred joins — takes one or two blocks,
// small enough that the candidates drawn past the stopping point cost
// less than a handful of joins.
const RefineBlock = 128

// AdHoc is the row argument of TopK and SketchBound for a query
// footprint that is not a stored user's.
const AdHoc = -1

// queryNorm is q's norm: the stored one when q is db's row `row`
// (db.Norms[row] is core.Norm(db.Footprints[row]), bit for bit).
func queryNorm(db *store.FootprintDB, q core.Footprint, row int) float64 {
	if row == AdHoc {
		return core.Norm(q)
	}
	return db.Norms[row]
}

// TopK returns the k users of db most similar to q among those src
// nominates and `in` selects (nil: all of them), best first, on up to
// `workers` goroutines (fewer when the candidates do not justify the
// fan-out; anything below 2 is the calling goroutine alone). The answer
// is LinearScan's ranking with the users outside `in` removed, byte for
// byte, whatever the source and the worker count. row is the dense
// index of the stored user whose footprint q is — its norm and sketch
// are then read from db instead of computed — or AdHoc. st, when
// non-nil, receives the work counts. Cancellation is polled at entry,
// inside the source and the bound step, before the seed's joins, before
// every block and before the merge; workers never outlive the block
// they were started for, and a cancelled query returns (nil,
// ctx.Err()), its partial collectors discarded.
//
//geo:cancellable
func TopK(ctx context.Context, db *store.FootprintDB, src Source, q core.Footprint, row, k int, in *Restrict, workers int, st *SketchStats) ([]Result, error) {
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
	seed := Refiner{Col: topk.New(k)}
	rest, best := seed.Seed(db, scored, sc.best[:0], q, k, qnorm)
	sc.best = best
	order := OrderByBound(rest)

	workers = shardWorkers(workers, order.Len())
	ws := make([]Refiner, workers)
	ws[0] = seed
	//lint:ignore ctxcancel bounded by the worker count
	for w := 1; w < workers; w++ {
		ws[w].Col = topk.New(k)
	}
	for live := workers; live > 0 && order.Len() > 0; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		block := order.NextBlock(sc.block[:0], workers*RefineBlock)
		sc.block = block
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			if ws[w].Done {
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ws[w].Refine(db, block, w, workers, q, k, qnorm)
			}(w)
		}
		if !ws[0].Done {
			// The caller's goroutine is worker 0.
			ws[0].Refine(db, block, 0, workers, q, k, qnorm)
		}
		wg.Wait()
		live = 0
		for w := range ws {
			if !ws[w].Done {
				live++
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Merge into worker 0's collector.
	col := ws[0].Col
	//lint:ignore ctxcancel bounded by the worker count times k
	for w := range ws {
		if st != nil {
			st.Refined += ws[w].Refined
		}
		if w > 0 {
			for _, r := range ws[w].Col.Results() {
				col.Offer(r.ID, r.Score)
			}
		}
	}
	return col.Results(), nil
}

// Refiner is one worker's share of the loop: its collector, how many
// Algorithm 4 joins it has run, and whether it has stopped for good.
type Refiner struct {
	Col     *topk.Collector
	Refined int
	Done    bool
}

// Refine joins positions start, start+stride, … of block — the next
// stretch of the bound-descending order — into r.Col, and sets r.Done
// at the first candidate whose bound is strictly below the collector's
// k-th score: every remaining candidate's similarity is ≤ that bound,
// so none can enter the collector (strict < keeps equal-score ID
// tie-breaks exact).
func (r *Refiner) Refine(db *store.FootprintDB, block []SketchCandidate, start, stride int, q core.Footprint, k int, qnorm float64) {
	for i := start; i < len(block); i += stride {
		c := block[i]
		if r.Col.Len() == k && c.Bound < r.Col.Threshold() {
			r.Done = true
			return
		}
		r.join(db, c.User, q, qnorm)
	}
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
