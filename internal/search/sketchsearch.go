package search

import (
	"context"
	"fmt"

	"geofootprint/internal/core"
	"geofootprint/internal/sketch"
	"geofootprint/internal/store"
)

// This file is the sketch filter-and-refine machinery: candidates —
// whoever nominated them — are ranked by their sketch upper bound
// (internal/sketch — per cell, the least of a Cauchy–Schwarz and two
// Hölder bounds on Equation 1's numerator) and refined with Algorithm 4
// in descending bound order, stopping as soon as the best remaining
// bound falls strictly below the current k-th score. Because the bound
// provably dominates the similarity as computed, every skipped
// candidate is provably outside the top k, so the results — scores,
// IDs, order, tie-breaks — are byte-identical to LinearScan.TopK
// (verified by tests on all four part presets).
//
// The loop itself is TopK (topk.go), which runs these pieces for every
// source: SketchBound (the bound step, over whichever storage order of
// the sketch layer is cheaper for the query — boundAgainst), the seed
// (Refiner.Seed: the k best bounds joined first, every bound below
// their k-th score dropped) and BoundOrder (the lazy descending order
// of what is left). A G×G sketch bound is tight enough that most
// MBR-intersecting candidates never reach Algorithm 4 — and refining
// best bound first means the collector's threshold rises as fast as
// possible, which is what makes the early exit bite.

// SketchStats reports how much work one bounded query did.
type SketchStats struct {
	// Candidates is the number of users the candidate source nominated
	// (for TopKSketch: those whose footprint MBR intersects the query
	// MBR — what plain TopK would refine), after any restriction.
	Candidates int
	// Scored is the number of candidates with a non-zero sketch
	// bound (the rest are rejected without entering the order).
	Scored int
	// Refined is the number of Algorithm 4 joins actually run.
	Refined int
}

// TopKSketch is TopK under the name that insists on the sketch layer:
// it panics on a database without one (store.EnableSketches) instead of
// quietly joining every candidate.
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
	if !ix.db.SketchesEnabled() {
		panic("search: TopKSketch requires store.FootprintDB.EnableSketches")
	}
	var st SketchStats
	res, _ := TopK(context.Background(), ix.db, ix, q, AdHoc, k, nil, &st)
	return res, st
}

// SketchCandidates runs the filter steps of TopKSketch alone — MBR
// candidates bounded against qsk and listed best bound first, zero
// bounds dropped. The query sketch must be built with the database's
// SketchParams. It orders the whole list, which no query path does;
// for the ledger and the tests.
func (ix *UserCentricIndex) SketchCandidates(q core.Footprint, qsk *sketch.Sketch, qnorm float64) []SketchCandidate {
	if !ix.db.SketchesEnabled() {
		panic("search: SketchCandidates requires store.FootprintDB.EnableSketches")
	}
	scored, _ := boundAgainst(context.Background(), ix.db, ix.Candidates(q.MBR(), nil), qsk, qnorm, nil)
	order := OrderByBound(scored)
	sorted := make([]SketchCandidate, 0, order.Len())
	for order.Len() > 0 {
		sorted = append(sorted, order.Next())
	}
	return sorted
}

// SketchBound is the bound step every candidate source shares: each
// candidate's sketch upper bound on its similarity to q, appended to
// buf in candidate order with the zero bounds dropped (a zero bound
// certifies zero similarity, and zero-similarity users are never
// returned). It reads only the database, so it serves R-tree, RoI and
// all-users candidates alike. The query's sketch is the stored
// db.Sketch(row) when q is that row, else built from q (row AdHoc).
// A database without a sketch layer gives every candidate the trivial
// bound 1: the same refine loop then runs with no early exit.
// Cancellation is polled every cancelStride candidates.
func SketchBound(ctx context.Context, db *store.FootprintDB, cands []int, q core.Footprint, row int, qnorm float64, buf []SketchCandidate) ([]SketchCandidate, error) {
	if !db.SketchesEnabled() {
		for _, u := range cands {
			buf = append(buf, SketchCandidate{User: u, Bound: 1})
		}
		return buf, nil
	}
	if row != AdHoc {
		return boundAgainst(ctx, db, cands, db.Sketch(row), qnorm, buf)
	}
	qsk := sketch.Build(q, db.SketchParams)
	return boundAgainst(ctx, db, cands, &qsk, qnorm, buf)
}

// gatherPerWalk is what bounding one gathered cell costs, in walked
// postings. BenchmarkBoundStep on the ledger corpus, columnar (2-core
// x86-64 host, whose runs spread ±20 %), gathers 64 894 stored cells in
// ≈ 400 µs — ≈ 6.2 ns each, a random lookup into the query's dense
// table and the cell's term — and walks 23 394 postings in ≈ 87 µs —
// ≈ 3.7 ns each, sequential, clearing walk and read-off included; on
// the cluster_r2 leg of shard-0 ("-leg", a shard's own postings) the
// two cost ≈ 5.3 and ≈ 3.2 ns. The ratios, ≈ 1.65 to 1.75, are the
// weight. The legs it moves ("-leg-borderline", 67 of 512; about one in
// ten of that workload's legs) walk in about half their gather's time.
const gatherPerWalk = 1.75

// boundAgainst is SketchBound with the query sketch already built. The
// sketch layer exists in two orders and each query takes the cheaper
// one, known before any work is done: walking the posting lists of the
// query's cells visits every user sharing a cell with it, whoever
// nominated them (sketch.Postings.Walk postings), and then gathers the
// candidates the transpose is stale for; gathering visits the stored
// cells of all the candidates and nobody else's (len(cands) × the mean
// cells per user), each at gatherPerWalk times a posting's cost. So the
// walk wins when its postings cost less than gathering the candidates
// it reads off. An unrestricted query over an R-tree source walks, and
// so does a segment leg that keeps half its shard's candidates; a leg
// with a narrower restriction, a tiny-MBR query, and every query of a
// base too young to have been transposed (store.SketchPostings) gather.
// The two sides produce the same bits — see sketch/postings.go — so the
// choice is invisible in any answer or count.
func boundAgainst(ctx context.Context, db *store.FootprintDB, cands []int, qsk *sketch.Sketch, qnorm float64, buf []SketchCandidate) ([]SketchCandidate, error) {
	if t := db.SketchPostings(len(cands)); t != nil {
		fresh := len(cands)
		if stale := t.Stale(db); stale.Len() > 0 {
			for _, u := range cands {
				if stale.Has(u) {
					fresh--
				}
			}
		}
		if float64(t.Walk(qsk)*t.Users()) <= gatherPerWalk*float64(fresh*t.Len()) {
			return boundByPostings(ctx, db, t, cands, qsk, qnorm, buf)
		}
	}
	return boundByGather(ctx, db, cands, qsk, qnorm, buf)
}

// boundByGather scatters the query sketch into a pooled dense table
// once and gathers every candidate's stored sketch against it
// (sketch.DotDense).
//
//geo:cancellable
func boundByGather(ctx context.Context, db *store.FootprintDB, cands []int, qsk *sketch.Sketch, qnorm float64, buf []SketchCandidate) ([]SketchCandidate, error) {
	raster := sketch.Rasterize(qsk, db.SketchParams.G)
	defer raster.Release()
	dense := raster.Table()
	for i, u := range cands {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if b := sketch.UpperBound(sketch.DotDense(db.Sketch(u), dense), db.Norm(u), qnorm); b > 0 {
			buf = append(buf, SketchCandidate{User: u, Bound: b})
		}
	}
	return buf, nil
}

// boundByPostings accumulates the query's bound sum against every
// user sharing a cell with it into a pooled per-user accumulator
// (sketch.Postings.Accumulate) and reads the candidates' entries off
// it, with their norms off the transpose, in candidate order — but for
// the candidates the transpose is stale for (store.Transpose.Stale),
// whose stored sketches it gathers (sketch.DotDense) and whose stored
// norms it reads instead. The accumulator goes back to the pool only
// once it is all +0 again, on the cancelled path too; a panic between
// the two walks leaves it to the collector instead.
//
//geo:cancellable
func boundByPostings(ctx context.Context, db *store.FootprintDB, t *store.Transpose, cands []int, qsk *sketch.Sketch, qnorm float64, buf []SketchCandidate) ([]SketchCandidate, error) {
	stale := t.Stale(db)
	var dense []sketch.Entry
	if stale.Len() > 0 {
		raster := sketch.Rasterize(qsk, db.SketchParams.G)
		defer raster.Release()
		dense = raster.Table()
	}
	acc := acquireAccumulator(db.Len())
	t.Accumulate(qsk, acc.sum)
	var err error
	for i, u := range cands {
		if i&(cancelStride-1) == 0 {
			if err = ctx.Err(); err != nil {
				buf = nil
				break
			}
		}
		var dot, norm float64
		if stale.Has(u) {
			dot, norm = sketch.DotDense(db.Sketch(u), dense), db.Norm(u)
		} else {
			dot, norm = acc.sum[u], t.Norm(u)
		}
		if b := sketch.UpperBound(dot, norm, qnorm); b > 0 {
			buf = append(buf, SketchCandidate{User: u, Bound: b})
		}
	}
	t.Clear(qsk, acc.sum)
	accumulatorPool.Put(acc)
	return buf, err
}

// BoundOrder hands out scored candidates best first — bound
// descending, ties by dense user index ascending, a total order, so
// the sequence (and with it every refinement count) is reproducible —
// without sorting them: a binary max-heap built in place in O(n), each
// Next O(log n). A query that refines r of n candidates pays
// O(n + r·log n) for its order instead of O(n·log n).
type BoundOrder struct{ heap []SketchCandidate }

// OrderByBound takes ownership of scored and arranges it as the heap.
//
//geo:hotpath
func OrderByBound(scored []SketchCandidate) BoundOrder {
	o := BoundOrder{heap: scored}
	for i := len(scored)/2 - 1; i >= 0; i-- {
		o.siftDown(i)
	}
	return o
}

// Len returns how many candidates have not been handed out yet.
func (o *BoundOrder) Len() int { return len(o.heap) }

// Next removes and returns the best remaining candidate. It must not
// be called on an empty order.
//
//geo:hotpath
func (o *BoundOrder) Next() SketchCandidate {
	h := o.heap
	top := h[0]
	last := len(h) - 1
	o.heap = h[:last]
	if last > 0 {
		h[0] = h[last]
		o.siftDown(0)
	}
	return top
}

//geo:hotpath
func (o *BoundOrder) siftDown(i int) {
	h := o.heap
	c := h[i]
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if r := kid + 1; r < len(h) && boundBefore(h[r], h[kid]) {
			kid = r
		}
		if !boundBefore(h[kid], c) {
			break
		}
		h[i] = h[kid]
		i = kid
	}
	h[i] = c
}

// boundBefore is the refinement order: higher bound first, ties by
// smaller dense user index.
func boundBefore(a, b SketchCandidate) bool {
	if a.Bound != b.Bound {
		return a.Bound > b.Bound
	}
	return a.User < b.User
}

// String renders the stats for logs and bench tables.
func (s SketchStats) String() string {
	return fmt.Sprintf("candidates=%d scored=%d refined=%d", s.Candidates, s.Scored, s.Refined)
}
