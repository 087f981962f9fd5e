package engine

import (
	"context"
	"sync"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
)

// This file is the cancellation layer of the engine: TopKCtx and
// TopKBatchCtx observe context cancellation and deadlines, and the
// non-context entry points are thin wrappers over them with
// context.Background() — so both spellings execute the identical offer
// sequence and the byte-identical determinism guarantees are
// unchanged.
//
// Cancellation protocol (search.TopK's, which every query here is):
//
//   - The candidate and bound steps poll ctx.Err() every 256
//     candidates.
//   - The refine loop polls once per block — at most
//     search.RefineBlock joins per worker — and the coordinator always
//     waits for every worker of a block before it looks at the
//     context, so an abandoned query never leaves a goroutine writing
//     into engine-held state.
//   - On cancellation the query returns (nil, ctx.Err()) — never a
//     partial ranking. All per-query state (collectors, candidate
//     slices) is local and unpublished, so later queries on the same
//     engine are unaffected (verified under -race by tests).

// TopKCtx is TopK honouring ctx: it returns ctx.Err() when the
// context is cancelled or past its deadline, and never a partial
// result set.
func (e *QueryEngine) TopKCtx(ctx context.Context, q core.Footprint, k int) ([]search.Result, error) {
	return e.TopKInCtx(ctx, q, k, nil)
}

// TopKInCtx is TopKCtx over the users `in` selects (nil: all of them):
// search.TopK over the engine's source and worker pool, so a restricted
// answer is the unrestricted ranking with the other users removed,
// whatever the method.
func (e *QueryEngine) TopKInCtx(ctx context.Context, q core.Footprint, k int, in *search.Restrict) ([]search.Result, error) {
	return search.TopK(ctx, e.db, e.src, q, search.AdHoc, k, in, e.workers, nil)
}

// TopKRowCtx is TopKCtx with stored user u's row as the query: its
// footprint, and the norm and sketch the database holds for it, which
// an ad-hoc query computes. The answer is TopKCtx's over
// db.Footprints[u], bit for bit.
func (e *QueryEngine) TopKRowCtx(ctx context.Context, u, k int) ([]search.Result, error) {
	return search.TopK(ctx, e.db, e.src, e.db.Footprints[u], u, k, nil, e.workers, nil)
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
		//lint:ignore ctxcancel search.TopK polls at entry, so every iteration observes cancellation
		for i, q := range queries {
			res, err := search.TopK(ctx, e.db, e.src, q, search.AdHoc, k, nil, 1, nil)
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
				res, err := search.TopK(ctx, e.db, e.src, queries[i], search.AdHoc, k, nil, 1, nil)
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
