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
// k. The bound step and the order stay serial (a walk down the posting
// lists of the query's cells, or a gather per candidate where that is
// shorter — sketchsearch.go; a heap pop per refined candidate); the
// joins are sharded across the workers. Serial is workers = 1.
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
// answer. Every global top-k result is necessarily in its worker's
// local top k, and a collector's retained set depends only on the
// multiset of its offers, so offering every worker's results to one
// collector reconstructs the exact answer — byte-identical to
// LinearScan, whose result is the unique top k under the strict total
// order. The loop ends when every worker has stopped or the order is
// drained; each worker's stopping point depends only on its own
// subsequence, so the number of joins run is a function of
// (query, k, workers), not of scheduling.
//
// Without a sketch layer every bound is 1, no worker ever stops early,
// and the same loop joins every candidate: the paper's methods as
// published.

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
// candidate list, their bounds (which become the order's heap) and the
// block being refined (the bound step's per-user accumulator has its
// own pool, accumulator.go, shared with the accumulating sources). With every method bounding thousands of
// candidates per query, allocating these afresh would scale the
// garbage with the request rate.
type scratch struct {
	cands  []int
	scored []SketchCandidate
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

// TopK returns the k users of db most similar to q among those src
// nominates and `in` selects (nil: all of them), best first, on up to
// `workers` goroutines (fewer when the candidates do not justify the
// fan-out; anything below 2 is the calling goroutine alone). The answer
// is LinearScan's ranking with the users outside `in` removed, byte for
// byte, whatever the source and the worker count. st, when non-nil,
// receives the work counts. Cancellation is polled at entry, inside the
// source and the bound step, before every block and before the merge;
// workers never outlive the block they were started for, and a
// cancelled query returns (nil, ctx.Err()), its partial collectors
// discarded.
//
//geo:cancellable
func TopK(ctx context.Context, db *store.FootprintDB, src Source, q core.Footprint, k int, in *Restrict, workers int, st *SketchStats) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qnorm := core.Norm(q)
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
	scored, err := SketchBound(ctx, db, cands, q, qnorm, sc.scored[:0])
	if err != nil {
		return nil, err
	}
	sc.scored = scored
	if st != nil {
		st.Candidates, st.Scored = len(cands), len(scored)
	}
	order := OrderByBound(scored)

	workers = shardWorkers(workers, order.Len())
	ws := make([]Refiner, workers)
	//lint:ignore ctxcancel bounded by the worker count
	for w := range ws {
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
		r.Refined++
		if sim := db.UserSimilarity(c.User, q, qnorm); sim > 0 {
			r.Col.Offer(db.IDs[c.User], sim)
		}
	}
}
