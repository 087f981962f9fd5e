package core

import (
	"math"
	"slices"

	"geofootprint/internal/sweep"
)

// Similarity computes sim(F(r), F(s)) of Equation 1 with no
// precomputed state: a single plane sweep derives the numerator and
// both norms (the "Computing Norms and Similarity Simultaneously"
// variant of Algorithm 3 in Section 5.2).
func Similarity(fr, fs Footprint) float64 {
	sim, _, _ := SimilarityWithNorms(fr, fs)
	return sim
}

// SimilarityWithNorms is Similarity, additionally returning the two
// norms computed during the sweep so callers can cache them.
func SimilarityWithNorms(fr, fs Footprint) (sim, normR, normS float64) {
	simn, ssqR, ssqS := sweepNumerator(fr, fs, true)
	normR, normS = math.Sqrt(ssqR), math.Sqrt(ssqS)
	return divide(simn, normR*normS), normR, normS
}

// SimilaritySweep is Algorithm 3: the plane-sweep similarity
// computation given precomputed norms (from Algorithm 2). Its cost is
// O((n+m)²) for footprints with n and m regions.
//
//geo:hotpath
func SimilaritySweep(fr, fs Footprint, normR, normS float64) float64 {
	denom := normR * normS
	if denom == 0 {
		return 0
	}
	simn, _, _ := sweepNumerator(fr, fs, false)
	return divide(simn, denom)
}

// SimilarityJoin is Algorithm 4: similarity via a plane-sweep spatial
// intersection join. Every intersecting pair of RoIs contributes its
// intersection area times the product of the two weights; the paper's
// correctness sketch shows this equals the numerator of Equation 1.
// Unlike Algorithm 3 it cannot derive the norms, so they must be
// supplied. Expected cost O(n log n + m log m + n + m + K); when both
// footprints are already sorted by Rect.MinX (SortByMinX, which
// FromRoIs applies) the sort terms vanish and the join allocates
// nothing — this is what makes Algorithm 4 run at microsecond scale,
// the headline of Table 3.
//
//geo:hotpath
func SimilarityJoin(fr, fs Footprint, normR, normS float64) float64 {
	denom := normR * normS
	if denom == 0 {
		return 0
	}
	fr = ensureSorted(fr)
	fs = ensureSorted(fs)
	var simn float64
	i, j := 0, 0
	for i < len(fr) && j < len(fs) {
		if fr[i].Rect.MinX <= fs[j].Rect.MinX {
			r := &fr[i]
			for k := j; k < len(fs) && fs[k].Rect.MinX <= r.Rect.MaxX; k++ {
				simn += r.Rect.IntersectionArea(fs[k].Rect) * r.Weight * fs[k].Weight
			}
			i++
		} else {
			s := &fs[j]
			for k := i; k < len(fr) && fr[k].Rect.MinX <= s.Rect.MaxX; k++ {
				simn += s.Rect.IntersectionArea(fr[k].Rect) * s.Weight * fr[k].Weight
			}
			j++
		}
	}
	return divide(simn, denom)
}

// SortByMinX orders the footprint's regions by Rect.MinX in place.
// Region order carries no meaning (a footprint is a set), and sorted
// order lets SimilarityJoin skip its per-call sort.
//
// The sort is stable: regions of equal MinX keep their input order.
// That makes the stored order of a footprint that grows by appends
// ("existing regions, then arrival order" among equal keys) the same
// whether the new regions arrive in one append or several, which is
// what lets the ingest pipeline group WAL records freely while the
// database stays a pure function of the record sequence.
func SortByMinX(f Footprint) {
	slices.SortStableFunc(f, func(a, b Region) int {
		switch {
		case a.Rect.MinX < b.Rect.MinX:
			return -1
		case a.Rect.MinX > b.Rect.MinX:
			return 1
		default:
			return 0
		}
	})
}

// IsSortedByMinX reports whether the footprint is ordered by Rect.MinX
// — the invariant store.FootprintDB maintains at ingest so that the
// similarity kernels never copy or re-sort on the hot path.
func IsSortedByMinX(f Footprint) bool {
	for i := 1; i < len(f); i++ {
		if f[i].Rect.MinX < f[i-1].Rect.MinX {
			return false
		}
	}
	return true
}

// ensureSorted is the sorted-input fast path of SimilarityJoin: an
// O(n) allocation-free check that returns f unchanged when it is
// already ordered by MinX — which every footprint coming out of
// FromRoIs or store.FootprintDB is — and only for externally built,
// unsorted footprints falls back to a sorted copy (leaving the
// caller's slice intact).
//
//geo:hotpath
func ensureSorted(f Footprint) Footprint {
	if IsSortedByMinX(f) {
		return f
	}
	if strictSortViolationPanics {
		// -tags strictsort: an unsorted footprint reached a similarity
		// kernel, meaning some ingest path skipped SortByMinX and is
		// paying a hidden copy+sort here on every call.
		panic("core: footprint not sorted by MinX (strictsort build)")
	}
	//lint:ignore hotalloc cold fallback for externally built unsorted footprints; the sorted fast path above allocates nothing and strictsort builds panic before reaching here
	g := make(Footprint, len(f))
	copy(g, f)
	SortByMinX(g)
	return g
}

// Numerator returns the un-normalised numerator of Equation 1 — the
// integral of the product of the two footprints' frequency functions —
// computed by the Algorithm 3 sweep. The 3D extension (Section 8)
// uses it as the per-stripe kernel of its sweep-plane algorithms.
func Numerator(fr, fs Footprint) float64 {
	simn, _, _ := sweepNumerator(fr, fs, false)
	return simn
}

// sweepNumerator runs the sweep of Algorithm 3 over the merged
// endpoint events of both footprints. At each stop it merge-joins the
// two active-interval structures to accumulate the weighted
// intersection of the stripe (lines 5-17); when withNorms is set it
// also accumulates both squared norms in the same pass.
//
//geo:hotpath
func sweepNumerator(fr, fs Footprint, withNorms bool) (simn, ssqR, ssqS float64) {
	if len(fr) == 0 && len(fs) == 0 {
		return 0, 0, 0
	}
	buf := acquireEvents(2 * (len(fr) + len(fs)))
	evs := footprintEvents(fr, 0, buf.evs)
	evs = footprintEvents(fs, 1, evs)
	sortEvents(evs)

	dr, ds := sweep.Acquire(), sweep.Acquire()
	prev := evs[0].v
	for _, e := range evs {
		if e.v > prev {
			w := e.v - prev
			simn += sweep.IntegrateProduct(dr, ds) * w
			if withNorms {
				ssqR += dr.SumSquares() * w
				ssqS += ds.SumSquares() * w
			}
			prev = e.v
		}
		var d *sweep.CoverageList
		var r Region
		if e.src == 0 {
			d, r = dr, fr[e.idx]
		} else {
			d, r = ds, fs[e.idx]
		}
		if e.start {
			d.Insert(r.Rect.MinY, r.Rect.MaxY, r.Weight)
		} else {
			d.Remove(r.Rect.MinY, r.Rect.MaxY, r.Weight)
		}
	}
	sweep.Release(dr)
	sweep.Release(ds)
	releaseEvents(buf, evs)
	return simn, ssqR, ssqS
}

// divide guards the norm division: two footprints are defined to have
// similarity 0 when either norm vanishes (empty or fully degenerate
// footprints), avoiding 0/0. Results are clamped to [0, 1] to absorb
// floating-point round-off at the top of the range.
func divide(simn, denom float64) float64 {
	if denom == 0 {
		return 0
	}
	sim := simn / denom
	if sim < 0 {
		return 0
	}
	if sim > 1 {
		return 1
	}
	return sim
}
