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
// The package provides the single-pass extractor with the paper's
// back-tracking step (Extractor; Extract and ExtractUser run it over
// whole trajectories) and a naive reference that follows the prose
// description literally (ExtractNaive); the two are equivalent and
// tested against each other.
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
	return extractSessions([]traj.Trajectory{t}, cfg)
}

// extractSessions pushes every session through one Extractor, flushing
// between sessions, and returns the RoIs in session order.
func extractSessions(sessions []traj.Trajectory, cfg Config) []RoI {
	var out []RoI
	e := Extractor{cfg: cfg, epsSq: cfg.Epsilon * cfg.Epsilon, emit: func(r RoI) { out = append(out, r) }}
	for _, s := range sessions {
		for _, l := range s {
			e.Push(l)
		}
		e.Flush()
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
