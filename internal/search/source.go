package search

import (
	"context"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/rtree"
	"geofootprint/internal/store"
)

// This file holds the candidate sources. A search method is a candidate
// source and nothing else: it nominates the users worth scoring, and
// the one loop (TopK, topk.go) restricts, bounds, refines and ranks
// them — which is why every method returns the same bytes. The methods
// differ in how many users they hand to that loop and in what finding
// them costs.
//
// Cancellation protocol, shared by the sources, the loop and
// LinearScan:
//
//   - The loops poll ctx.Err() every cancelStride iterations (a mask
//     test plus, every 256th iteration, one interface call — noise
//     next to an Algorithm 4 join or an R-tree descent).
//   - On cancellation the search returns (nil, ctx.Err()) — never a
//     partial ranking. A truncated top-k is indistinguishable from a
//     complete one and therefore worse than no answer.
//   - All state is query-local or pooled-and-cleared: collectors are
//     the query's own, and a pooled accumulator is zeroed on the
//     cancelled path before it goes back, so an abandoned search leaves
//     nothing to poison later queries.

// cancelStride is how many loop iterations run between ctx.Err()
// polls; a power of two so the test is a mask.
const cancelStride = 256

// Source is a candidate source: the filter step of one search method.
type Source interface {
	// Nominate appends to buf the dense index of every user that may
	// have positive similarity to q — a superset of them, each user at
	// most once, in any order — and returns the extended slice, or
	// (nil, ctx.Err()) once it has seen ctx cancelled.
	Nominate(ctx context.Context, q core.Footprint, buf []int) ([]int, error)
}

// AllUsers is the index-free source: every user of db is a candidate.
func AllUsers(db *store.FootprintDB) Source { return allUsers{db} }

type allUsers struct{ db *store.FootprintDB }

func (s allUsers) Nominate(_ context.Context, _ core.Footprint, buf []int) ([]int, error) {
	for u := range s.db.IDs {
		buf = append(buf, u)
	}
	return buf, nil
}

// Nominate implements Source with the filter step of Section 6.2: the
// users whose footprint MBR intersects the query's.
func (ix *UserCentricIndex) Nominate(_ context.Context, q core.Footprint, buf []int) ([]int, error) {
	return ix.Candidates(q.MBR(), buf), nil
}

// Iterative returns the candidate step of the Section 6.1.1 search as
// a Source.
func (ix *RoIIndex) Iterative() Source { return iterativeSource{ix} }

// Batch returns the candidate step of the Section 6.1.2 search as a
// Source.
func (ix *RoIIndex) Batch() Source { return batchSource{ix} }

type (
	iterativeSource struct{ ix *RoIIndex }
	batchSource     struct{ ix *RoIIndex }
)

// accumulate adds one (indexed region, query region) pair's
// contribution to the per-user numerator of Equation 1. data is the
// region's packed payload.
//
// The accumulated numerator only decides candidacy (n > 0 means some
// RoI of the user intersects some query RoI — exactly the users
// LinearScan would score positive); the loop recomputes every score
// through UserSimilarity, the canonical Algorithm 4 kernel. The sum
// itself is NOT used as the score: its float64 rounding depends on
// index visit order, i.e. on tree shape, so the same user on the same
// query could score differently at the last ulp across build modes,
// node capacities, or corpus partitions. Scoring through the one
// shared kernel makes every method's score a pure function of (user
// footprint, query) — the invariant the result cache, the columnar
// kernels, and cross-shard scatter-gather all lean on.
//
// The numerators live in a pooled dense accumulator, so a user's sum
// adds up in index visit order and the users come out in the order the
// index first reached them — both functions of the tree alone.
func accumulate(db *store.FootprintDB, acc *accumulator, rect geom.Rect, data int64, qr *core.Region) {
	if a := rect.IntersectionArea(qr.Rect); a > 0 {
		u, r := unpackPayload(data)
		acc.add(u, a*db.RegionWeight(u, r)*qr.Weight)
	}
}

// Nominate runs one R-tree range query per query RoI, accumulating the
// numerator of Equation 1 per user, and nominates the users it came out
// positive for. Cancellation is polled across R-tree entry visits; a
// fired poll aborts the current traversal (the search callback returns
// false).
//
//geo:cancellable
func (s iterativeSource) Nominate(ctx context.Context, q core.Footprint, buf []int) ([]int, error) {
	acc := acquireAccumulator(s.ix.db.Len())
	var visits int
	var cerr error
	for i := range q {
		qr := &q[i]
		s.ix.tree.Search(qr.Rect, func(e rtree.Entry) bool {
			if visits&(cancelStride-1) == 0 {
				if cerr = ctx.Err(); cerr != nil {
					return false
				}
			}
			visits++
			accumulate(s.ix.db, acc, e.Rect, e.Data, qr)
			return true
		})
		if cerr != nil {
			acc.drain(buf)
			return nil, cerr
		}
	}
	return acc.drain(buf), nil
}

// Nominate runs the single traversal guided by MBR(F(q)): at every
// reached leaf, entries not intersecting MBR(F(q)) and query RoIs not
// intersecting the leaf MBR are eliminated, and the survivors are
// joined into the per-user numerators; it nominates the users that
// came out positive. SearchLeaves has no early-stop path, so after a
// fired poll the remaining leaf callbacks return without joining — the
// rest of the traversal is a bare tree walk — and the call then returns
// ctx.Err().
//
//geo:cancellable
func (s batchSource) Nominate(ctx context.Context, q core.Footprint, buf []int) ([]int, error) {
	qmbr := q.MBR()
	acc := acquireAccumulator(s.ix.db.Len())

	// The query regions are sorted by MinX once for the whole
	// traversal (footprints from FromRoIs already are; ensureSorted
	// is then a no-op copy check).
	qs := make(core.Footprint, len(q))
	copy(qs, q)
	core.SortByMinX(qs)

	var visits int
	var cerr error
	s.ix.tree.SearchLeaves(qmbr, func(leafMBR geom.Rect, entries []rtree.Entry) {
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
				accumulate(s.ix.db, acc, e.Rect, e.Data, &qs[j])
			}
		}
	})
	if cerr != nil {
		acc.drain(buf)
		return nil, cerr
	}
	return acc.drain(buf), nil
}
