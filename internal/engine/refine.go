package engine

import (
	"context"
	"sync"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
	"geofootprint/internal/topk"
)

// This file is the one refine loop: every method's candidates, bounded
// by their sketch (search.SketchBound), are refined with Algorithm 4
// best bound first, and the loop stops once no remaining bound can
// reach the top k. The bound step and the order stay serial (a gather
// per candidate, a heap pop per refined candidate); the joins are
// sharded across the worker pool.
//
// The order is drawn lazily, a block at a time (search.BoundOrder: a
// query that refines 200 of 2 500 candidates never orders the other
// 2 300). Within a block of workers·search.RefineBlock candidates the
// shards are STRIDED, not contiguous: worker w of W refines positions
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
// local top k, so mergeParts reconstructs the exact answer —
// byte-identical to LinearScan, whose result is the unique top k under
// the strict total order. The loop ends when every worker has stopped
// or the order is drained; each worker's stopping point depends only
// on its own subsequence, so the number of joins run is a function of
// (query, k, workers), not of scheduling.
//
// Without a sketch layer every bound is 1, no worker ever stops early,
// and the same loop joins every candidate.

// refineCtx runs the loop over `order` on up to `workers` workers
// (fewer when the candidates do not justify the fan-out). Cancellation
// is polled before every block; workers never outlive the block they
// were started for, and a cancelled query returns (nil, ctx.Err()),
// its partial collectors discarded.
//
//geo:cancellable
func (e *QueryEngine) refineCtx(ctx context.Context, sc *scratch, order search.BoundOrder, q core.Footprint, k int, qnorm float64, workers int, st *search.SketchStats) ([]search.Result, error) {
	workers = max(1, min(workers, e.shardWorkers(order.Len())))
	ws := make([]search.Refiner, workers)
	//lint:ignore ctxcancel bounded by the worker count
	for w := range ws {
		ws[w].Col = topk.New(k)
	}
	for live := workers; live > 0 && order.Len() > 0; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		block := order.NextBlock(sc.block[:0], workers*search.RefineBlock)
		sc.block = block
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			if ws[w].Done {
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ws[w].Refine(e.db, block, w, workers, q, k, qnorm)
			}(w)
		}
		if !ws[0].Done {
			// The caller's goroutine is worker 0.
			ws[0].Refine(e.db, block, 0, workers, q, k, qnorm)
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
	parts := make([]*topk.Collector, workers)
	//lint:ignore ctxcancel bounded by the worker count
	for w := range ws {
		parts[w] = ws[w].Col
		if st != nil {
			st.Refined += ws[w].Refined
		}
	}
	return mergeParts(parts, k), nil
}
