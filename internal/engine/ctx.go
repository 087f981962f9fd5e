package engine

import (
	"context"
	"sync"

	"geofootprint/internal/core"
	"geofootprint/internal/par"
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
//     candidates, and the refinement every 256 joins.
//   - The query polls once more before it returns, so a cancellation
//     seen anywhere in it is never answered with a ranking.
//   - On cancellation the query returns (nil, ctx.Err()) — never a
//     partial ranking. All per-query state (the collector, candidate
//     slices) is local and unpublished, and the query runs on its
//     caller's goroutine, so later queries on the same engine are
//     unaffected (verified under -race by tests).

// TopKCtx is TopK honouring ctx: it returns ctx.Err() when the
// context is cancelled or past its deadline, and never a partial
// result set.
func (e *QueryEngine) TopKCtx(ctx context.Context, q core.Footprint, k int) ([]search.Result, error) {
	return e.TopKInCtx(ctx, q, k, nil)
}

// TopKInCtx is TopKCtx over the users `in` selects (nil: all of them):
// search.TopK over the engine's source, so a restricted answer is the
// unrestricted ranking with the other users removed, whatever the
// method.
func (e *QueryEngine) TopKInCtx(ctx context.Context, q core.Footprint, k int, in *search.Restrict) ([]search.Result, error) {
	return e.query(ctx, q, search.AdHoc, k, in, nil)
}

// rowPool holds the buffers TopKRowCtx reads its query row into, so a
// row query allocates nothing for it on either backing.
var rowPool = sync.Pool{New: func() any { return new(core.Footprint) }}

// TopKRowCtx is TopKCtx with stored user u's row as the query: its
// footprint, and the norm and sketch the database holds for it, which
// an ad-hoc query computes. The answer is TopKCtx's over db.Row(u),
// bit for bit.
func (e *QueryEngine) TopKRowCtx(ctx context.Context, u, k int) ([]search.Result, error) {
	row := rowPool.Get().(*core.Footprint)
	*row = e.db.AppendRow((*row)[:0], u)
	res, err := e.query(ctx, *row, u, k, nil, nil)
	rowPool.Put(row)
	return res, err
}

// query is the call every entry point makes: search.TopK over the
// engine's database and source, on the calling goroutine. st, when
// non-nil, receives the work counts.
func (e *QueryEngine) query(ctx context.Context, q core.Footprint, row, k int, in *search.Restrict, st *search.SketchStats) ([]search.Result, error) {
	return search.TopK(ctx, e.db, e.src, q, row, k, in, st)
}

// TopKBatchCtx is TopKBatch honouring ctx. On cancellation the whole
// batch fails with ctx.Err(): per-query results computed so far are
// discarded, because a batch with silently missing entries is worse
// than a clean error. Once the context is cancelled the pool skips the
// queries it has not started (each would fail at its entry poll
// anyway), and every goroutine exits before return.
//
//geo:cancellable
func (e *QueryEngine) TopKBatchCtx(ctx context.Context, queries []core.Footprint, k int) ([][]search.Result, error) {
	out := make([][]search.Result, len(queries))
	par.For(len(queries), e.workers, 1, func(_, lo, hi int) {
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			// A query fails only with ctx's error, returned below.
			out[i], _ = e.query(ctx, queries[i], search.AdHoc, k, nil, nil)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
