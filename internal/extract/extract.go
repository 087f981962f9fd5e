// Package extract implements Algorithm 1 of the paper: greedy
// extraction of temporally maximal, temporally disjoint regions of
// interest (RoIs) from a regularly sampled user trajectory.
//
// A region of interest (Definition 3.2) is the minimum bounding box of
// a run of consecutive locations {l_s, ..., l_e} such that
//
//	(i)  every pair of locations is within spatial distance ε, and
//	(ii) the run contains at least τ locations.
//
// The package provides the optimised single-pass extractor with the
// paper's back-tracking step (Extract) and a naive reference that
// follows the prose description literally (ExtractNaive); the two are
// equivalent and tested against each other.
package extract

import (
	"fmt"

	"geofootprint/internal/geom"
	"geofootprint/internal/traj"
)

// Mode selects how the spatial constraint ε of Definition 3.2 is
// checked when a location is added to the current region.
type Mode int

const (
	// DiameterL2 checks the definition exactly: every pair of
	// locations in the region must be within L2 distance ε. The
	// incremental check is O(|R|) per location with an O(1)
	// bounding-box fast path.
	DiameterL2 Mode = iota
	// ExtentMBR bounds the diagonal of the region's MBR by ε. This
	// is a conservative O(1) check (an MBR diagonal ≤ ε implies all
	// pairwise distances ≤ ε) that yields slightly smaller regions.
	ExtentMBR
)

func (m Mode) String() string {
	switch m {
	case DiameterL2:
		return "diameter-l2"
	case ExtentMBR:
		return "extent-mbr"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config carries the two bounds of Definition 3.2 and the constraint
// mode. The paper's evaluation uses Epsilon=0.02 (≈2 m in the
// normalized ATC space) and Tau=30 (≈3 s at the sensor rate).
type Config struct {
	// Epsilon is the spatial extent constraint ε: the maximum
	// allowed distance between any two locations of a region.
	Epsilon float64
	// Tau is the minimum number of consecutive locations τ for a
	// run to qualify as a region of interest.
	Tau int
	// Mode selects the ε-check; the zero value is DiameterL2.
	Mode Mode
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Epsilon <= 0 {
		return fmt.Errorf("extract: Epsilon must be positive, got %g", c.Epsilon)
	}
	if c.Tau < 1 {
		return fmt.Errorf("extract: Tau must be >= 1, got %d", c.Tau)
	}
	if c.Mode != DiameterL2 && c.Mode != ExtentMBR {
		return fmt.Errorf("extract: unknown mode %d", int(c.Mode))
	}
	return nil
}

// RoI is an extracted region of interest: the 3D minimum bounding box
// of a qualifying run of locations. Rect is the spatial (2D)
// projection used by geo-footprints; TStart/TEnd delimit the temporal
// extent; Count is the number of locations in the run.
type RoI struct {
	Rect   geom.Rect
	TStart float64
	TEnd   float64
	Count  int
}

// Duration returns the temporal extent of the RoI in seconds. It is
// the natural duration weight of the Section 8 extension.
func (r RoI) Duration() float64 { return r.TEnd - r.TStart }

// Extract runs Algorithm 1 on one trajectory and returns the extracted
// RoIs in temporal order. The result is empty (nil) when the
// trajectory has fewer than cfg.Tau locations or no qualifying run.
func Extract(t traj.Trajectory, cfg Config) []RoI {
	if len(t) < cfg.Tau || len(t) == 0 {
		return nil
	}
	var out []RoI
	w := newWindow(t, cfg)
	w.reset(0, 1) // current region R = t[0:1]
	for i := 1; i < len(t); i++ {
		if w.fits(t[i].P) {
			w.extendTo(i)
			continue
		}
		// Adding l_i to R would violate ε.
		if w.size() >= cfg.Tau {
			// Current region has enough points: finalize it
			// and restart from l_i (Alg. 1 lines 6-8).
			out = append(out, makeRoI(t, w.lo, w.hi))
			w.reset(i, i+1)
			continue
		}
		// Back-tracking step (Alg. 1 lines 10-14): start a new
		// region at l_i and extend it backwards with the trailing
		// locations of R, for as long as ε holds. This guarantees
		// that the maximal region containing l_i is not missed
		// while avoiding a full restart.
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
		out = append(out, makeRoI(t, w.lo, w.hi))
	}
	return out
}

// ExtractNaive is the literal prose description of Section 3.2: slide
// a start index s; once the τ locations from s form a valid region,
// extend the end maximally, emit, and continue after the emitted
// region. It is O(|T|·τ²) and exists as a test oracle for Extract.
//
//lint:ignore testonly the reference the extraction tests compare Algorithm 1 against
func ExtractNaive(t traj.Trajectory, cfg Config) []RoI {
	var out []RoI
	s := 0
	for s+cfg.Tau <= len(t) {
		if !validRun(t, s, s+cfg.Tau, cfg) {
			s++
			continue
		}
		e := s + cfg.Tau
		for e < len(t) && validRun(t, s, e+1, cfg) {
			e++
		}
		out = append(out, makeRoI(t, s, e))
		s = e
	}
	return out
}

// validRun reports whether t[s:e] satisfies the ε constraint under the
// configured mode, checking from scratch.
func validRun(t traj.Trajectory, s, e int, cfg Config) bool {
	if cfg.Mode == ExtentMBR {
		m := geom.EmptyRect()
		for _, l := range t[s:e] {
			m = m.ExtendPoint(l.P)
		}
		return m.Diagonal() <= cfg.Epsilon
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

func makeRoI(t traj.Trajectory, s, e int) RoI {
	m := geom.EmptyRect()
	for _, l := range t[s:e] {
		m = m.ExtendPoint(l.P)
	}
	return RoI{Rect: m, TStart: t[s].T, TEnd: t[e-1].T, Count: e - s}
}

// window tracks the current region R = t[lo:hi] of Algorithm 1
// together with its MBR, supporting incremental ε checks.
type window struct {
	t      traj.Trajectory
	cfg    Config
	epsSq  float64
	lo, hi int
	mbr    geom.Rect
}

func newWindow(t traj.Trajectory, cfg Config) *window {
	return &window{t: t, cfg: cfg, epsSq: cfg.Epsilon * cfg.Epsilon}
}

func (w *window) size() int { return w.hi - w.lo }

// reset makes the window track t[lo:hi], recomputing the MBR.
func (w *window) reset(lo, hi int) {
	w.lo, w.hi = lo, hi
	m := geom.RectFromPoints(w.t[lo].P)
	for _, l := range w.t[lo+1 : hi] {
		m = m.ExtendPoint(l.P)
	}
	w.mbr = m
}

// extendTo grows the window forward to include t[i] (i == hi), which
// the caller has verified fits.
func (w *window) extendTo(i int) {
	w.hi = i + 1
	w.mbr = w.mbr.ExtendPoint(w.t[i].P)
}

// extendBackTo grows the window backwards to include t[j] (j == lo-1),
// which the caller has verified fits.
func (w *window) extendBackTo(j int) {
	w.lo = j
	w.mbr = w.mbr.ExtendPoint(w.t[j].P)
}

// fits reports whether point p can join the current region without
// violating ε under the configured mode.
func (w *window) fits(p geom.Point) bool {
	ext := w.mbr.ExtendPoint(p)
	if w.cfg.Mode == ExtentMBR {
		return ext.Diagonal() <= w.cfg.Epsilon
	}
	// Fast accept: if the extended MBR's diagonal is within ε,
	// every pairwise distance is too.
	if ext.Diagonal() <= w.cfg.Epsilon {
		return true
	}
	// Fast reject: a single axis extent beyond ε already implies a
	// pair (p and the extreme point on that axis) farther than ε
	// apart in that coordinate alone.
	if ext.Width() > w.cfg.Epsilon || ext.Height() > w.cfg.Epsilon {
		return false
	}
	// Exact pairwise check of the candidate against the region.
	for j := w.lo; j < w.hi; j++ {
		if p.DistSq(w.t[j].P) > w.epsSq {
			return false
		}
	}
	return true
}
