package search

import (
	"context"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/rtree"
	"geofootprint/internal/topk"
)

// This file is the cancellation layer of the search package: every
// top-k method gains a Ctx variant that observes context cancellation
// and deadlines. The non-context methods are thin wrappers over these
// with context.Background(), so both spellings run the identical
// offer sequence and the byte-identical determinism guarantees carry
// over unchanged.
//
// Cancellation protocol, shared by all variants:
//
//   - The loops poll ctx.Err() every cancelStride iterations (a mask
//     test plus, every 256th iteration, one interface call — noise
//     next to an Algorithm 4 join or an R-tree descent).
//   - On cancellation the search returns (nil, ctx.Err()) — never a
//     partial ranking. A truncated top-k is indistinguishable from a
//     complete one and therefore worse than no answer.
//   - All state is query-local (collectors, accumulator maps), so an
//     abandoned search leaves nothing to poison later queries.

// cancelStride is how many loop iterations run between ctx.Err()
// polls; a power of two so the test is a mask.
const cancelStride = 256

// TopKCtx is TopK honouring ctx; it returns ctx.Err() when cancelled.
//
//geo:cancellable
func (s *LinearScan) TopKCtx(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qnorm := core.Norm(q)
	if qnorm == 0 || k <= 0 {
		return nil, nil
	}
	col := topk.New(k)
	for i := range s.db.Footprints {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if sim := s.db.UserSimilarity(i, q, qnorm); sim > 0 {
			col.Offer(s.db.IDs[i], sim)
		}
	}
	return col.Results(), nil
}

// TopKCtx is TopK honouring ctx (iterative search).
func (ix *RoIIndex) TopKCtx(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	return ix.TopKIterativeCtx(ctx, q, k)
}

// TopKIterativeCtx is TopKIterative honouring ctx.
func (ix *RoIIndex) TopKIterativeCtx(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	return ix.topKCtx(ctx, ix.IterativeCandidatesCtx, q, k)
}

// topKCtx is the serial search shared by both Section 6.1 methods:
// generate candidates, score each through the canonical kernel.
func (ix *RoIIndex) topKCtx(ctx context.Context, candidates func(context.Context, core.Footprint) ([]int, error), q core.Footprint, k int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qnorm := core.Norm(q)
	if qnorm == 0 || k <= 0 {
		return nil, nil
	}
	cands, err := candidates(ctx, q)
	if err != nil {
		return nil, err
	}
	return ix.rankCtx(ctx, cands, q, qnorm, k)
}

// IterativeCandidatesCtx runs the candidate step of the Section 6.1.1
// search alone: one R-tree range query per query RoI, accumulating the
// numerator of Equation 1 per user, and returns the dense indexes of
// the users it came out positive for (in no particular order).
// Cancellation is polled across R-tree entry visits; a fired poll
// aborts the current traversal (the search callback returns false).
//
//geo:cancellable
func (ix *RoIIndex) IterativeCandidatesCtx(ctx context.Context, q core.Footprint) ([]int, error) {
	simn := make(map[int]float64)
	var visits int
	var cerr error
	for _, qr := range q {
		ix.tree.Search(qr.Rect, func(e rtree.Entry) bool {
			if visits&(cancelStride-1) == 0 {
				if cerr = ctx.Err(); cerr != nil {
					return false
				}
			}
			visits++
			if a := e.Rect.IntersectionArea(qr.Rect); a > 0 {
				u, r := unpackPayload(e.Data)
				simn[u] += a * ix.db.RegionWeight(u, r) * qr.Weight
			}
			return true
		})
		if cerr != nil {
			return nil, cerr
		}
	}
	return positive(simn), nil
}

// TopKBatchCtx is TopKBatch honouring ctx.
func (ix *RoIIndex) TopKBatchCtx(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	return ix.topKCtx(ctx, ix.BatchCandidatesCtx, q, k)
}

// BatchCandidatesCtx runs the candidate step of the Section 6.1.2
// search alone — the single guided traversal with per-leaf joins — and
// returns the dense indexes of the users whose accumulated numerator
// came out positive (in no particular order). SearchLeaves has no
// early-stop path, so after a fired poll the remaining leaf callbacks
// return without joining — the rest of the traversal is a bare tree
// walk — and the call then returns ctx.Err().
//
//geo:cancellable
func (ix *RoIIndex) BatchCandidatesCtx(ctx context.Context, q core.Footprint) ([]int, error) {
	qmbr := q.MBR()
	simn := make(map[int]float64)

	// The query regions are sorted by MinX once for the whole
	// traversal (footprints from FromRoIs already are; ensureSorted
	// is then a no-op copy check).
	qs := make(core.Footprint, len(q))
	copy(qs, q)
	core.SortByMinX(qs)

	var visits int
	var cerr error
	ix.tree.SearchLeaves(qmbr, func(leafMBR geom.Rect, entries []rtree.Entry) {
		if cerr != nil {
			return
		}
		// Eliminate query RoIs not intersecting the leaf MBR — the
		// first elimination of Section 6.1.2. The query is sorted
		// by MinX, so the scan stops at the first region starting
		// past the leaf.
		anyQ := false
		//lint:ignore ctxcancel bounded by len(q) per leaf; the entry loop below polls
		for j := range qs {
			if qs[j].Rect.MinX > leafMBR.MaxX {
				break
			}
			if qs[j].Rect.Intersects(leafMBR) {
				anyQ = true
				break
			}
		}
		if !anyQ {
			return
		}
		// Join surviving leaf entries (those inside MBR(F(q)) — the
		// second elimination) against the sorted query regions with
		// an early-exit scan; leaves hold a few dozen entries, for
		// which this beats sorting them per leaf.
		for i := range entries {
			if visits&(cancelStride-1) == 0 {
				if cerr = ctx.Err(); cerr != nil {
					return
				}
			}
			visits++
			e := &entries[i]
			if !e.Rect.Intersects(qmbr) {
				continue
			}
			// Bounded by len(q) per entry; the enclosing entry loop polls.
			for j := range qs {
				if qs[j].Rect.MinX > e.Rect.MaxX {
					break
				}
				ix.accumulate(simn, e, &qs[j])
			}
		}
	})
	if cerr != nil {
		return nil, cerr
	}
	return positive(simn), nil
}

// positive lists the users an accumulator map holds a positive
// numerator for.
func positive(simn map[int]float64) []int {
	cands := make([]int, 0, len(simn))
	for u, n := range simn {
		if n > 0 {
			cands = append(cands, u)
		}
	}
	return cands
}

// rankCtx scores the candidates, with one cancellation poll per
// cancelStride users — the list can hold every user in the database.
//
// The accumulated numerator decides candidacy (n > 0 means some RoI of
// the user intersects some query RoI — exactly the users LinearScan
// would score positive), but the final similarity is recomputed
// through UserSimilarity, the canonical Algorithm 4 kernel. The
// accumulated sum itself is NOT used as the score: its float64
// rounding depends on R-tree visit order, i.e. on tree shape, so the
// same user on the same query could score differently at the last ulp
// across build modes, node capacities, or corpus partitions. Scoring
// through the one shared kernel makes every method's score a pure
// function of (user footprint, query) — the invariant the result
// cache, the columnar kernels, and cross-shard scatter-gather all
// lean on.
//
//geo:cancellable
func (ix *RoIIndex) rankCtx(ctx context.Context, cands []int, q core.Footprint, qnorm float64, k int) ([]Result, error) {
	col := topk.New(k)
	for i, u := range cands {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		sim := ix.db.UserSimilarity(u, q, qnorm)
		if sim > 0 {
			col.Offer(ix.db.IDs[u], sim)
		}
	}
	return col.Results(), nil
}

// TopKCtx is TopK honouring ctx (user-centric refinement).
//
//geo:cancellable
func (ix *UserCentricIndex) TopKCtx(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qnorm := core.Norm(q)
	if qnorm == 0 || k <= 0 {
		return nil, nil
	}
	col := topk.New(k)
	var visits int
	var cerr error
	ix.tree.Search(q.MBR(), func(e rtree.Entry) bool {
		if visits&(cancelStride-1) == 0 {
			if cerr = ctx.Err(); cerr != nil {
				return false
			}
		}
		visits++
		u := int(e.Data)
		sim := ix.db.UserSimilarity(u, q, qnorm)
		if sim > 0 {
			col.Offer(ix.db.IDs[u], sim)
		}
		return true
	})
	if cerr != nil {
		return nil, cerr
	}
	return col.Results(), nil
}

// TopKPrunedCtx is TopKPruned honouring ctx.
//
//geo:cancellable
func (ix *UserCentricIndex) TopKPrunedCtx(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qnorm := core.Norm(q)
	if qnorm == 0 || k <= 0 {
		return nil, nil
	}
	ix.ensureMaxFreqs()
	qmbr := q.MBR()
	qmax := maxFreq(q)
	qarea := weightedArea(q)
	col := topk.New(k)
	var visits int
	var cerr error
	ix.tree.Search(qmbr, func(e rtree.Entry) bool {
		if visits&(cancelStride-1) == 0 {
			if cerr = ctx.Err(); cerr != nil {
				return false
			}
		}
		visits++
		u := int(e.Data)
		if col.Len() == k {
			// Three O(1) upper bounds on the numerator; the
			// smallest decides.
			//   ∫ f_r·f_q ≤ maxf_r·maxf_q·|MBR_r ∩ MBR_q|
			//   ∫ f_r·f_q ≤ maxf_r·∫f_q   and symmetric.
			num := e.Rect.IntersectionArea(qmbr) * ix.maxW[u] * qmax
			if b := ix.maxW[u] * qarea; b < num {
				num = b
			}
			if b := qmax * ix.twa[u]; b < num {
				num = b
			}
			if num/(ix.db.Norms[u]*qnorm) < col.Threshold() {
				return true
			}
		}
		sim := ix.db.UserSimilarity(u, q, qnorm)
		if sim > 0 {
			col.Offer(ix.db.IDs[u], sim)
		}
		return true
	})
	if cerr != nil {
		return nil, cerr
	}
	return col.Results(), nil
}

// TopKSketchCtx is TopKSketch honouring ctx: the bound step polls
// between candidates and the refinement loop between Algorithm 4
// joins.
func (ix *UserCentricIndex) TopKSketchCtx(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	var st SketchStats
	return ix.topKSketch(ctx, q, k, &st)
}
