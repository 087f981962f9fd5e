package core

// RegionCols is the columnar (structure-of-arrays) layout of a set of
// footprints: five parallel float64 columns over their regions, in
// each footprint's MinX-sorted order, with footprints addressed as
// contiguous [lo, hi) ranges (the CSR layout of the colstore
// snapshot). The columns may alias an mmap'd snapshot file; the holder
// (store.FootprintDB, whose chunks each hold one) keeps that mapping
// alive.
type RegionCols struct {
	MinX, MinY, MaxX, MaxY, W []float64
}

// SimilarityJoinCols is SimilarityJoin with the stored footprint read
// from dense columns instead of a []Region slice: the Algorithm 4
// sweep join of the stored regions [lo, hi) of c against the query
// footprint fs. The loop bodies are branch-lean flat scans over the
// five columns — no per-region struct loads, bounds hoisted into
// subslices — which is what lets the compiler keep every operand in
// registers; results are bit-for-bit identical to
// SimilarityJoin(regions, fs, normR, normS) because both run the same
// merge order and the same multiply/accumulate sequence (the zero-area
// pairs SimilarityJoin adds as +0 are skipped here, which cannot
// change a non-negative accumulator). The interval clips use the
// min/max builtins, which compile inline; math.Min/math.Max are
// out-of-line calls on amd64 and were close to half of every join
// (same bits on every NaN-free input, ±0 and ±Inf included; see
// geom.Rect.IntersectionArea).
//
// The stored side is NOT re-checked for sortedness: the columnar
// loader validates the MinX order of every footprint at open, and the
// store writes a row into its chunk only once it is sorted, so a
// column range is never unsorted.
// The query side runs through the same ensureSorted fast path as
// SimilarityJoin (and panics under -tags strictsort when violated).
//
//geo:hotpath
func SimilarityJoinCols(c *RegionCols, lo, hi int, fs Footprint, normR, normS float64) float64 {
	denom := normR * normS
	if denom == 0 {
		return 0
	}
	fs = ensureSorted(fs)
	minx := c.MinX[lo:hi]
	miny := c.MinY[lo:hi]
	maxx := c.MaxX[lo:hi]
	maxy := c.MaxY[lo:hi]
	w := c.W[lo:hi]
	n, m := len(minx), len(fs)
	var simn float64
	i, j := 0, 0
	for i < n && j < m {
		if minx[i] <= fs[j].Rect.MinX {
			rMinX, rMinY, rMaxX, rMaxY, rW := minx[i], miny[i], maxx[i], maxy[i], w[i]
			for k := j; k < m && fs[k].Rect.MinX <= rMaxX; k++ {
				s := &fs[k]
				iw := min(rMaxX, s.Rect.MaxX) - max(rMinX, s.Rect.MinX)
				if iw <= 0 {
					continue
				}
				ih := min(rMaxY, s.Rect.MaxY) - max(rMinY, s.Rect.MinY)
				if ih <= 0 {
					continue
				}
				simn += iw * ih * rW * s.Weight
			}
			i++
		} else {
			s := &fs[j]
			sMinX, sMinY, sMaxX, sMaxY, sW := s.Rect.MinX, s.Rect.MinY, s.Rect.MaxX, s.Rect.MaxY, s.Weight
			for k := i; k < n && minx[k] <= sMaxX; k++ {
				iw := min(sMaxX, maxx[k]) - max(sMinX, minx[k])
				if iw <= 0 {
					continue
				}
				ih := min(sMaxY, maxy[k]) - max(sMinY, miny[k])
				if ih <= 0 {
					continue
				}
				simn += iw * ih * sW * w[k]
			}
			j++
		}
	}
	return divide(simn, denom)
}
