package search

import (
	"fmt"
	"sort"

	"geofootprint/internal/core"
	"geofootprint/internal/sketch"
	"geofootprint/internal/topk"
)

// This file adds the sketch filter-and-refine search to the
// user-centric index: candidates from the R-tree filter step are
// ranked by their sketch upper bound (internal/sketch — a per-cell
// Cauchy–Schwarz bound on Equation 1) and refined with Algorithm 4 in
// descending bound order, stopping as soon as the best remaining bound
// falls strictly below the current k-th score. Because the bound
// provably dominates the true similarity, every skipped candidate is
// provably outside the top k, so the results — scores, IDs, order,
// tie-breaks — are byte-identical to TopK and LinearScan.TopK
// (verified by tests on all four part presets).
//
// This is the remedy the O(1) bounds of TopKPruned could not deliver
// (EXPERIMENTS.md records that negative result): a G×G sketch bound is
// tight enough that most MBR-intersecting candidates never reach
// Algorithm 4 — and sorting by bound means the collector's threshold
// rises as fast as possible, which is what makes the early exit bite.

// SketchStats reports how much work one TopKSketch query did.
type SketchStats struct {
	// Candidates is the number of users whose footprint MBR
	// intersects the query MBR — what plain TopK would refine.
	Candidates int
	// Scored is the number of candidates with a non-zero sketch
	// bound (the rest are rejected without even entering the sort).
	Scored int
	// Refined is the number of Algorithm 4 joins actually run.
	Refined int
}

// TopKSketch implements the sketch filter-and-refine search. It
// requires the database's sketch layer (store.EnableSketches); results
// are identical to TopK.
func (ix *UserCentricIndex) TopKSketch(q core.Footprint, k int) []Result {
	res, _ := ix.TopKSketchStats(q, k)
	return res
}

// SketchCandidate is one filter-step survivor: a dense user index
// and its sketch upper bound on the similarity to the query.
type SketchCandidate struct {
	User  int
	Bound float64
}

// TopKSketchStats is TopKSketch, additionally reporting filter
// effectiveness (for the geobench resolution sweep).
func (ix *UserCentricIndex) TopKSketchStats(q core.Footprint, k int) ([]Result, SketchStats) {
	db := ix.db
	if !db.SketchesEnabled() {
		panic("search: TopKSketch requires store.FootprintDB.EnableSketches")
	}
	var st SketchStats
	qnorm := core.Norm(q)
	if qnorm == 0 || k <= 0 {
		return nil, st
	}
	qsk := sketch.Build(q, db.SketchParams)
	cands := ix.Candidates(q.MBR(), nil)
	st.Candidates = len(cands)
	scored := ix.SketchBound(cands, &qsk, qnorm)
	st.Scored = len(scored)

	col := topk.New(k)
	for _, c := range scored {
		if col.Len() == k && c.Bound < col.Threshold() {
			// The list is bound-descending: every remaining
			// candidate's similarity is ≤ this bound < the k-th
			// score, so none can enter the collector (strict <
			// keeps equal-score ID tie-breaks exact).
			break
		}
		st.Refined++
		sim := db.UserSimilarity(c.User, q, qnorm)
		if sim > 0 {
			col.Offer(db.IDs[c.User], sim)
		}
	}
	return col.Results(), st
}

// sortByBound orders candidates by bound descending, ties by dense
// user index ascending — a deterministic refinement order, so the
// refinement count (not just the result) is reproducible.
func sortByBound(cs []SketchCandidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Bound != cs[j].Bound {
			return cs[i].Bound > cs[j].Bound
		}
		return cs[i].User < cs[j].User
	})
}

// SketchCandidates runs the filter steps of TopKSketch alone — MBR
// candidates scored and sorted by sketch bound, zero bounds dropped.
// The query sketch must be built with the database's SketchParams.
func (ix *UserCentricIndex) SketchCandidates(q core.Footprint, qsk *sketch.Sketch, qnorm float64) []SketchCandidate {
	return ix.SketchBound(ix.Candidates(q.MBR(), nil), qsk, qnorm)
}

// SketchBound runs the bound step alone over a candidate list the
// caller generated (and may have narrowed): every candidate's sketch
// upper bound, sorted descending, for callers that shard the
// refinement themselves (the engine).
func (ix *UserCentricIndex) SketchBound(cands []int, qsk *sketch.Sketch, qnorm float64) []SketchCandidate {
	db := ix.db
	if !db.SketchesEnabled() {
		panic("search: SketchBound requires store.FootprintDB.EnableSketches")
	}
	scored := make([]SketchCandidate, 0, len(cands))
	for _, u := range cands {
		b := sketch.UpperBound(db.UserSketchDot(u, qsk), db.Norms[u], qnorm)
		if b > 0 {
			// A zero bound certifies zero similarity (the bound
			// dominates it), and zero-similarity users are never
			// returned — drop before the sort.
			scored = append(scored, SketchCandidate{User: u, Bound: b})
		}
	}
	sortByBound(scored)
	return scored
}

// String renders the stats for logs and bench tables.
func (s SketchStats) String() string {
	return fmt.Sprintf("candidates=%d scored=%d refined=%d", s.Candidates, s.Scored, s.Refined)
}
