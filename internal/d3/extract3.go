package d3

import (
	"math"

	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
)

// This file carries Algorithm 1 into 3D space, completing the
// Section 8 extension: objects move in (x, y, z), regions of interest
// are 4D (space × time) boxes, and footprints keep their 3D spatial
// projections. The greedy structure — grow, finalize or back-track —
// is identical to the 2D extractor; only the geometry changes.

// Location3 is one tracked 3D position with its timestamp.
type Location3 struct {
	P geom.Point3
	T float64
}

// Trajectory3 is a regularly sampled sequence of 3D locations.
type Trajectory3 []Location3

// RoI3 is an extracted 4D region of interest: the spatial MBB of a
// qualifying run plus its temporal extent.
type RoI3 struct {
	Box    geom.Box3
	TStart float64
	TEnd   float64
	Count  int
}

// Duration returns the temporal extent of the RoI in seconds.
func (r RoI3) Duration() float64 { return r.TEnd - r.TStart }

// Extract3 runs the 3D Algorithm 1 on one trajectory. The Config is
// shared with the 2D extractor: ε bounds the pairwise (DiameterL2) or
// MBB-diagonal (ExtentMBR) spatial distance, τ the run length.
func Extract3(t Trajectory3, cfg extract.Config) []RoI3 {
	if len(t) < cfg.Tau || len(t) == 0 {
		return nil
	}
	var out []RoI3
	w := window3{t: t, cfg: cfg, epsSq: cfg.Epsilon * cfg.Epsilon}
	w.reset(0, 1)
	for i := 1; i < len(t); i++ {
		if w.fits(t[i].P) {
			w.extendTo(i)
			continue
		}
		if w.size() >= cfg.Tau {
			out = append(out, makeRoI3(t, w.lo, w.hi))
			w.reset(i, i+1)
			continue
		}
		oldLo := w.lo
		w.reset(i, i+1)
		for j := i - 1; j >= oldLo; j-- {
			if !w.fits(t[j].P) {
				break
			}
			w.extendBackTo(j)
		}
	}
	if w.size() >= cfg.Tau {
		out = append(out, makeRoI3(t, w.lo, w.hi))
	}
	return out
}

// ExtractNaive3 is the prose-literal sliding-window reference, the
// test oracle for Extract3.
//
//lint:ignore testonly the reference TestExtract3MatchesNaive compares Extract3 against
func ExtractNaive3(t Trajectory3, cfg extract.Config) []RoI3 {
	var out []RoI3
	s := 0
	for s+cfg.Tau <= len(t) {
		if !validRun3(t, s, s+cfg.Tau, cfg) {
			s++
			continue
		}
		e := s + cfg.Tau
		for e < len(t) && validRun3(t, s, e+1, cfg) {
			e++
		}
		out = append(out, makeRoI3(t, s, e))
		s = e
	}
	return out
}

func validRun3(t Trajectory3, s, e int, cfg extract.Config) bool {
	if cfg.Mode == extract.ExtentMBR {
		m := geom.EmptyBox3()
		for _, l := range t[s:e] {
			m = m.ExtendPoint(l.P)
		}
		return box3Diagonal(m) <= cfg.Epsilon
	}
	epsSq := cfg.Epsilon * cfg.Epsilon
	for i := s; i < e; i++ {
		for j := i + 1; j < e; j++ {
			if t[i].P.DistSq(t[j].P) > epsSq {
				return false
			}
		}
	}
	return true
}

func makeRoI3(t Trajectory3, s, e int) RoI3 {
	m := geom.EmptyBox3()
	for _, l := range t[s:e] {
		m = m.ExtendPoint(l.P)
	}
	return RoI3{Box: m, TStart: t[s].T, TEnd: t[e-1].T, Count: e - s}
}

// FromRoIs3 converts extracted 4D RoIs into a 3D footprint under the
// given weighting, regions sorted by Box.MinX for the join-based
// similarity.
func FromRoIs3(rois []RoI3, w Weighting) Footprint3 {
	f := make(Footprint3, 0, len(rois))
	for _, r := range rois {
		weight := 1.0
		if w == DurationWeight {
			weight = r.Duration()
			if weight <= 0 {
				weight = 1
			}
		}
		f = append(f, Region3{Box: r.Box, Weight: weight})
	}
	sortByMinX(f)
	return f
}

// Weighting mirrors core.Weighting for the 3D pipeline.
type Weighting int

const (
	// UnitWeight counts each RoI once.
	UnitWeight Weighting = iota
	// DurationWeight weights each RoI by stay duration.
	DurationWeight
)

func sortByMinX(f Footprint3) {
	// Insertion sort: footprints are small and often nearly sorted.
	for i := 1; i < len(f); i++ {
		for j := i; j > 0 && f[j].Box.MinX < f[j-1].Box.MinX; j-- {
			f[j], f[j-1] = f[j-1], f[j]
		}
	}
}

// window3 tracks the current region t[lo:hi] with its MBB.
type window3 struct {
	t      Trajectory3
	cfg    extract.Config
	epsSq  float64
	lo, hi int
	mbb    geom.Box3
}

func (w *window3) size() int { return w.hi - w.lo }

func (w *window3) reset(lo, hi int) {
	w.lo, w.hi = lo, hi
	m := geom.Box3FromPoints(w.t[lo].P)
	for _, l := range w.t[lo+1 : hi] {
		m = m.ExtendPoint(l.P)
	}
	w.mbb = m
}

func (w *window3) extendTo(i int) {
	w.hi = i + 1
	w.mbb = w.mbb.ExtendPoint(w.t[i].P)
}

func (w *window3) extendBackTo(j int) {
	w.lo = j
	w.mbb = w.mbb.ExtendPoint(w.t[j].P)
}

func (w *window3) fits(p geom.Point3) bool {
	ext := w.mbb.ExtendPoint(p)
	if w.cfg.Mode == extract.ExtentMBR {
		return box3Diagonal(ext) <= w.cfg.Epsilon
	}
	if box3Diagonal(ext) <= w.cfg.Epsilon {
		return true
	}
	if ext.MaxX-ext.MinX > w.cfg.Epsilon ||
		ext.MaxY-ext.MinY > w.cfg.Epsilon ||
		ext.MaxZ-ext.MinZ > w.cfg.Epsilon {
		return false
	}
	for j := w.lo; j < w.hi; j++ {
		if p.DistSq(w.t[j].P) > w.epsSq {
			return false
		}
	}
	return true
}

func box3Diagonal(b geom.Box3) float64 {
	dx, dy, dz := b.MaxX-b.MinX, b.MaxY-b.MinY, b.MaxZ-b.MinZ
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}
