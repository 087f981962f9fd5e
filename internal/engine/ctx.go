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
// Cancellation protocol:
//
//   - The candidate and bound steps poll ctx.Err() every 256
//     candidates, inside the search package.
//   - The refine loop (refine.go) polls once per block — at most
//     search.RefineBlock joins per worker — and the coordinator always
//     waits for every worker of a block before it looks at the
//     context, so an abandoned query never leaves a goroutine writing
//     into engine-held state.
//   - On cancellation the query returns (nil, ctx.Err()) — never a
//     partial ranking. All per-query state (collectors, candidate
//     slices) is local and unpublished, so later queries on the same
//     engine are unaffected (verified under -race by tests).

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
// Every method runs the same steps — generate candidates, drop those
// outside the restriction, bound the rest by their sketch, refine best
// bound first across the workers — so a restricted answer is the
// unrestricted ranking with the other users removed, whatever the
// method.
func (e *QueryEngine) TopKInCtx(ctx context.Context, q core.Footprint, k int, in *Restrict) ([]search.Result, error) {
	return e.topK(ctx, q, k, in, e.workers, nil)
}

// serialTopKCtx is the same query on one worker — the per-query unit
// of TopKBatchCtx, which spends its workers across queries instead.
func (e *QueryEngine) serialTopKCtx(ctx context.Context, q core.Footprint, k int) ([]search.Result, error) {
	return e.topK(ctx, q, k, nil, 1, nil)
}

// topK is the one query path. st, when non-nil, receives the work
// counts (tests compare them across methods and worker counts).
func (e *QueryEngine) topK(ctx context.Context, q core.Footprint, k int, in *Restrict, workers int, st *search.SketchStats) ([]search.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qnorm := core.Norm(q)
	if qnorm == 0 || k <= 0 {
		return nil, nil
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	cands, err := e.candidatesCtx(ctx, q, sc.cands[:0])
	if err != nil {
		return nil, err
	}
	sc.cands = cands
	cands = in.filter(cands)
	scored, err := search.SketchBound(ctx, e.db, cands, q, qnorm, sc.scored[:0])
	if err != nil {
		return nil, err
	}
	sc.scored = scored
	if st != nil {
		st.Candidates, st.Scored = len(cands), len(scored)
	}
	return e.refineCtx(ctx, sc, search.OrderByBound(scored), q, k, qnorm, workers, st)
}

// scratch is the per-query working memory the pool recycles: the
// candidate list, their bounds (which become the order's heap) and the
// block being refined. With every method bounding thousands of
// candidates per query, allocating these afresh would scale the
// garbage with the request rate.
type scratch struct {
	cands  []int
	scored []search.SketchCandidate
	block  []search.SketchCandidate
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// candidatesCtx generates the configured method's candidates into buf:
// dense user indexes, a superset of the users with positive
// similarity.
func (e *QueryEngine) candidatesCtx(ctx context.Context, q core.Footprint, buf []int) ([]int, error) {
	switch e.method {
	case MethodLinear:
		for u := range e.db.Footprints {
			buf = append(buf, u)
		}
		return buf, nil
	case MethodIterative:
		return e.roi.IterativeCandidatesCtx(ctx, q)
	case MethodBatch:
		return e.roi.BatchCandidatesCtx(ctx, q)
	default: // MethodUserCentric, MethodSketch
		return e.uc.Candidates(q.MBR(), buf), nil
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
