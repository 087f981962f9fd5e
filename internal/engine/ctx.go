package engine

import (
	"context"
	"sync"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
	"geofootprint/internal/topk"
)

// This file is the cancellation layer of the engine: TopKCtx and
// TopKBatchCtx observe context cancellation and deadlines, and the
// non-context entry points are thin wrappers over them with
// context.Background() — so both spellings execute the identical offer
// sequence and the byte-identical determinism guarantees are
// unchanged.
//
// Cancellation protocol:
//
//   - Serial refinement loops poll ctx.Err() every cancelStride
//     candidates, like the search package.
//   - Worker goroutines poll at shard positions (every cancelStride
//     iterations within their shard) and bail out early; the
//     coordinator always waits for every worker before returning, so
//     an abandoned query never leaves a goroutine writing into
//     engine-held state.
//   - On cancellation the query returns (nil, ctx.Err()) — never a
//     partial ranking. All per-query state (collectors, candidate
//     slices) is local and unpublished, so later queries on the same
//     engine are unaffected (verified under -race by tests).

// cancelStride is how many refinement iterations run between
// ctx.Err() polls; a power of two so the test is a mask.
const cancelStride = 256

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

// TopKCtx is TopK honouring ctx: it returns ctx.Err() when the
// context is cancelled or past its deadline, and never a partial
// result set.
func (e *QueryEngine) TopKCtx(ctx context.Context, q core.Footprint, k int) ([]search.Result, error) {
	return e.TopKInCtx(ctx, q, k, nil)
}

// TopKInCtx is TopKCtx over the users `in` selects (nil: all of them).
// Every method runs the same three steps — generate candidates, drop
// those outside the restriction, refine the rest across the workers —
// so a restricted answer is the unrestricted ranking with the other
// users removed, whatever the method.
func (e *QueryEngine) TopKInCtx(ctx context.Context, q core.Footprint, k int, in *Restrict) ([]search.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qnorm := core.Norm(q)
	if qnorm == 0 || k <= 0 {
		return nil, nil
	}
	cands, err := e.candidatesCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	cands = in.filter(cands)
	if e.method == MethodSketch {
		return e.refineSketchCtx(ctx, cands, q, k, qnorm)
	}
	return e.refineCandidatesCtx(ctx, cands, q, k, qnorm)
}

// candidatesCtx generates the configured method's candidates: dense
// user indexes, a superset of the users with positive similarity.
func (e *QueryEngine) candidatesCtx(ctx context.Context, q core.Footprint) ([]int, error) {
	switch e.method {
	case MethodLinear:
		all := make([]int, len(e.db.Footprints))
		for u := range all {
			all[u] = u
		}
		return all, nil
	case MethodIterative:
		return e.roi.IterativeCandidatesCtx(ctx, q)
	case MethodBatch:
		return e.roi.BatchCandidatesCtx(ctx, q)
	default: // MethodUserCentric, MethodSketch
		return e.uc.Candidates(q.MBR(), nil), nil
	}
}

// serialTopKCtx runs the configured method's serial path under ctx —
// the per-query unit of TopKBatchCtx.
func (e *QueryEngine) serialTopKCtx(ctx context.Context, q core.Footprint, k int) ([]search.Result, error) {
	switch e.method {
	case MethodLinear:
		return search.NewLinearScan(e.db).TopKCtx(ctx, q, k)
	case MethodIterative:
		return e.roi.TopKIterativeCtx(ctx, q, k)
	case MethodBatch:
		return e.roi.TopKBatchCtx(ctx, q, k)
	case MethodSketch:
		return e.uc.TopKSketchCtx(ctx, q, k)
	default:
		return e.uc.TopKCtx(ctx, q, k)
	}
}

// TopKBatchCtx is TopKBatch honouring ctx. On cancellation the whole
// batch fails with ctx.Err(): per-query results computed so far are
// discarded, because a batch with silently missing entries is worse
// than a clean error. Workers drain the feed channel after a
// cancellation (each query then fails fast at its entry poll), so the
// producer never blocks and every goroutine exits before return.
//
//geo:cancellable
func (e *QueryEngine) TopKBatchCtx(ctx context.Context, queries []core.Footprint, k int) ([][]search.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]search.Result, len(queries))
	workers := e.workers
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		//lint:ignore ctxcancel serialTopKCtx polls at entry, so every iteration observes cancellation
		for i, q := range queries {
			res, err := e.serialTopKCtx(ctx, q, k)
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain; the batch is already failed
				}
				res, err := e.serialTopKCtx(ctx, queries[i], k)
				if err != nil {
					continue
				}
				out[i] = res
			}
		}()
	}
	for i := range queries {
		if ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// refineCandidatesCtx shards a candidate list across workers, each
// refining its shard with Algorithm 4 into its own bounded heap, and
// merges the heaps deterministically.
//
//geo:cancellable
func (e *QueryEngine) refineCandidatesCtx(ctx context.Context, cands []int, q core.Footprint, k int, qnorm float64) ([]search.Result, error) {
	workers := e.shardWorkers(len(cands))
	if workers <= 1 {
		col := topk.New(k)
		for i, u := range cands {
			if i&(cancelStride-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			e.offerUser(col, u, q, qnorm)
		}
		return col.Results(), nil
	}
	parts := e.runShardsCtx(ctx, workers, len(cands), k, func(col *topk.Collector, i int) {
		e.offerUser(col, cands[i], q, qnorm)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return mergeParts(parts, k), nil
}

// runShardsCtx splits [0, n) into `workers` contiguous shards, runs
// `visit` over each shard on its own goroutine into a per-worker
// collector, and returns the collectors. Workers poll ctx every
// cancelStride positions within their shard and abandon the remainder
// once it fires; callers must check ctx.Err() after the wait and
// discard the partial collectors. The wait itself is unconditional —
// no goroutine outlives the call.
//
//geo:cancellable
func (e *QueryEngine) runShardsCtx(ctx context.Context, workers, n, k int, visit func(col *topk.Collector, i int)) []*topk.Collector {
	parts := make([]*topk.Collector, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			parts[w] = topk.New(k)
			continue
		}
		wg.Add(1)
		parts[w] = topk.New(k)
		go func(col *topk.Collector, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if (i-lo)&(cancelStride-1) == 0 && ctx.Err() != nil {
					return
				}
				visit(col, i)
			}
		}(parts[w], lo, hi)
	}
	wg.Wait()
	return parts
}
