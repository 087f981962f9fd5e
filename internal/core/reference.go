package core

import (
	"math"
	"sort"
)

// This file contains brute-force reference implementations of the
// norm and similarity measures, computed by coordinate compression:
// every x/y boundary of the input regions induces a grid, each grid
// cell's frequency is found by scanning all regions, and the integrals
// of Equations 1 and 2 are summed cell by cell. They are O(n³) and
// exist as oracles for the plane-sweep and join-based algorithms.

// NormNaive computes ||F(r)|| (Equation 2) by coordinate compression.
func NormNaive(f Footprint) float64 {
	if len(f) == 0 {
		return 0
	}
	xs, ys := breakpoints(f)
	var ssq float64
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			cx, cy := (xs[i]+xs[i+1])/2, (ys[j]+ys[j+1])/2
			var w float64
			for _, r := range f {
				if r.Rect.MinX <= cx && cx <= r.Rect.MaxX &&
					r.Rect.MinY <= cy && cy <= r.Rect.MaxY {
					w += r.Weight
				}
			}
			ssq += (xs[i+1] - xs[i]) * (ys[j+1] - ys[j]) * w * w
		}
	}
	return math.Sqrt(ssq)
}

// SimilarityNaive computes sim(F(r), F(s)) (Equation 1) by coordinate
// compression over the union of both footprints' boundaries.
//
//lint:ignore testonly the reference the kernel suites compare Algorithms 3 and 4 against
func SimilarityNaive(fr, fs Footprint) float64 {
	all := make(Footprint, 0, len(fr)+len(fs))
	all = append(all, fr...)
	all = append(all, fs...)
	if len(all) == 0 {
		return 0
	}
	xs, ys := breakpoints(all)
	var simn float64
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			cx, cy := (xs[i]+xs[i+1])/2, (ys[j]+ys[j+1])/2
			var wr, ws float64
			for _, r := range fr {
				if r.Rect.MinX <= cx && cx <= r.Rect.MaxX &&
					r.Rect.MinY <= cy && cy <= r.Rect.MaxY {
					wr += r.Weight
				}
			}
			for _, s := range fs {
				if s.Rect.MinX <= cx && cx <= s.Rect.MaxX &&
					s.Rect.MinY <= cy && cy <= s.Rect.MaxY {
					ws += s.Weight
				}
			}
			simn += (xs[i+1] - xs[i]) * (ys[j+1] - ys[j]) * wr * ws
		}
	}
	return divide(simn, NormNaive(fr)*NormNaive(fs))
}

func breakpoints(f Footprint) (xs, ys []float64) {
	xset := make(map[float64]struct{}, 2*len(f))
	yset := make(map[float64]struct{}, 2*len(f))
	for _, r := range f {
		xset[r.Rect.MinX] = struct{}{}
		xset[r.Rect.MaxX] = struct{}{}
		yset[r.Rect.MinY] = struct{}{}
		yset[r.Rect.MaxY] = struct{}{}
	}
	xs = make([]float64, 0, len(xset))
	for v := range xset {
		xs = append(xs, v)
	}
	ys = make([]float64, 0, len(yset))
	for v := range yset {
		ys = append(ys, v)
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	return xs, ys
}
