// Package core implements the paper's primary contribution: the
// geo-footprint model (Definition 3.3), the footprint norm and
// similarity measure (Section 4, Equations 1-2), and the three
// similarity-computation algorithms of Section 5:
//
//   - Algorithm 2 — plane-sweep norm computation, which also yields
//     the disjoint-region decomposition of a footprint;
//   - Algorithm 3 — plane-sweep similarity over two footprints, with a
//     variant that computes the two norms in the same pass;
//   - Algorithm 4 — join-based similarity on top of a plane-sweep
//     spatial intersection join, the fastest method when norms are
//     precomputed.
//
// Frequencies generalise to arbitrary positive weights, covering the
// duration-weighted footprints of Section 8 with the same code.
package core

import (
	"fmt"
	"math"

	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
)

// Region is one region of interest of a geo-footprint: its spatial
// (2D) projection and its weight. In the base model of the paper every
// weight is 1 and a location's frequency is the number of RoIs
// covering it; in the Section 8 extension the weight is the duration
// of the visit.
type Region struct {
	Rect   geom.Rect
	Weight float64
}

// Footprint is the geo-footprint F(u) of a user: the collection of the
// spatial projections of all the user's RoIs, across all sessions,
// disregarding their temporal dimension (Definition 3.3). Overlapping
// regions are meaningful — a point covered by several regions has the
// sum of their weights as its frequency.
type Footprint []Region

// Weighting selects how RoIs are converted into footprint regions.
type Weighting int

const (
	// UnitWeight gives every RoI weight 1: frequencies count visits,
	// the base model of the paper.
	UnitWeight Weighting = iota
	// DurationWeight weights each RoI by its temporal duration in
	// seconds (Section 8), so that longer stays count for more.
	DurationWeight
)

// FromRoIs builds a footprint from extracted RoIs under the given
// weighting. With DurationWeight, RoIs of zero duration (possible only
// when tau=1) receive weight 1 so they are not silently dropped from
// the similarity measure; callers needing different semantics can
// build the Footprint directly.
//
// The regions are returned sorted by Rect.MinX (region order carries
// no meaning per Definition 3.3), which lets the join-based
// Algorithm 4 skip its per-call sort.
func FromRoIs(rois []extract.RoI, w Weighting) Footprint {
	f := make(Footprint, 0, len(rois))
	for _, r := range rois {
		weight := 1.0
		if w == DurationWeight {
			weight = r.Duration()
			if weight <= 0 {
				weight = 1
			}
		}
		f = append(f, Region{Rect: r.Rect, Weight: weight})
	}
	SortByMinX(f)
	return f
}

// Validate checks the footprint's invariants: every region rectangle
// is a valid (non-inverted) box and every weight is strictly positive.
// The similarity algorithms assume these; Validate is the guard for
// footprints arriving from external input.
func (f Footprint) Validate() error {
	for i, r := range f {
		if r.Rect.MinX > r.Rect.MaxX || r.Rect.MinY > r.Rect.MaxY {
			return fmt.Errorf("core: region %d has an inverted rectangle %v", i, r.Rect)
		}
		if math.IsNaN(r.Rect.MinX) || math.IsNaN(r.Rect.MinY) ||
			math.IsNaN(r.Rect.MaxX) || math.IsNaN(r.Rect.MaxY) {
			return fmt.Errorf("core: region %d has NaN coordinates", i)
		}
		if !(r.Weight > 0) || math.IsInf(r.Weight, 1) {
			return fmt.Errorf("core: region %d has non-positive or non-finite weight %v", i, r.Weight)
		}
	}
	return nil
}

// MBR returns the minimum bounding rectangle of the footprint, the
// key used by the user-centric index of Section 6.2.
func (f Footprint) MBR() geom.Rect {
	m := geom.EmptyRect()
	for _, r := range f {
		m = m.Extend(r.Rect)
	}
	return m
}

// Translate returns a copy of the footprint shifted by (dx, dy).
// Similarity is translation-invariant when both operands are shifted
// together, which the tests exploit.
func (f Footprint) Translate(dx, dy float64) Footprint {
	g := make(Footprint, len(f))
	for i, r := range f {
		g[i] = Region{Rect: r.Rect.Translate(dx, dy), Weight: r.Weight}
	}
	return g
}

// Clip restricts the footprint to the given window: every region is
// intersected with the window and empty intersections drop out.
// Clipping enables area-scoped analytics — e.g. similarity "within the
// electronics department" only — while preserving the weights of the
// surviving area. Clipping to a window containing the footprint
// returns an equal footprint.
func (f Footprint) Clip(window geom.Rect) Footprint {
	g := make(Footprint, 0, len(f))
	for _, r := range f {
		inter := r.Rect.Intersection(window)
		if inter.IsEmpty() || inter.Area() == 0 {
			continue
		}
		g = append(g, Region{Rect: inter, Weight: r.Weight})
	}
	SortByMinX(g)
	return g
}

// WeightedRect is one element of the disjoint-region decomposition of
// a footprint: a rectangle and the total weight (frequency) of the
// footprint regions covering it.
type WeightedRect struct {
	Rect   geom.Rect
	Weight float64
}
