package engine

import (
	"context"
	"sync"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
	"geofootprint/internal/sketch"
	"geofootprint/internal/topk"
)

// This file parallelises the sketch filter-and-refine search
// (search.TopKSketch). The filter step — MBR candidates scored and
// sorted by their sketch upper bound — stays serial (it is a dot
// product per candidate plus one sort); the expensive refinement step
// is sharded across the worker pool.
//
// Shards are STRIDED, not contiguous: worker w of W refines candidates
// w, w+W, w+2W, … of the bound-descending list. Two consequences:
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
// it (and, by descending bounds, everything after it in the shard)
// cannot change the answer. Every global top-k result is necessarily
// in its worker's local top k, so mergeParts reconstructs the exact
// answer — byte-identical to the serial search.TopKSketch, whose
// result is the unique top k under the strict total order.

// refineSketchCtx bounds and refines the MBR candidates of one
// MethodSketch query, sharding refinement when the candidate count
// justifies the fan-out. Cancellation: the filter step polls once
// after scoring; refinement workers poll every cancelStride positions
// and abandon their shard. Partial collectors are discarded — the
// query returns (nil, ctx.Err()).
func (e *QueryEngine) refineSketchCtx(ctx context.Context, cands []int, q core.Footprint, k int, qnorm float64) ([]search.Result, error) {
	qsk := sketch.Build(q, e.db.SketchParams)
	scored := e.uc.SketchBound(cands, &qsk, qnorm)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := e.shardWorkers(len(scored))
	if workers <= 1 {
		col := topk.New(k)
		e.refineBoundedCtx(ctx, col, scored, 0, 1, q, k, qnorm)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return col.Results(), nil
	}
	parts := make([]*topk.Collector, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		parts[w] = topk.New(k)
		wg.Add(1)
		go func(col *topk.Collector, w int) {
			defer wg.Done()
			e.refineBoundedCtx(ctx, col, scored, w, workers, q, k, qnorm)
		}(parts[w], w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return mergeParts(parts, k), nil
}

// refineBoundedCtx refines the strided subsequence start, start+stride,
// … of the bound-descending candidate list into col, exiting as soon as
// the best remaining bound falls strictly below the collector's
// threshold. With start=0, stride=1 this is exactly the serial
// refinement loop of search.TopKSketchStats. It polls ctx every
// cancelStride positions and returns early when it fires; the caller
// must check ctx.Err() and discard the collector.
//
//geo:cancellable
func (e *QueryEngine) refineBoundedCtx(ctx context.Context, col *topk.Collector, scored []search.SketchCandidate,
	start, stride int, q core.Footprint, k int, qnorm float64) {
	for n, i := 0, start; i < len(scored); n, i = n+1, i+stride {
		if n&(cancelStride-1) == 0 && ctx.Err() != nil {
			return
		}
		c := scored[i]
		if col.Len() == k && c.Bound < col.Threshold() {
			return
		}
		sim := e.db.UserSimilarity(c.User, q, qnorm)
		if sim > 0 {
			col.Offer(e.db.IDs[c.User], sim)
		}
	}
}
