package extract

import (
	"geofootprint/internal/geom"
	"geofootprint/internal/traj"
)

// Extractor is Algorithm 1 in its one-pass form: locations are pushed
// one at a time as the positioning system reports them, and finished
// RoIs are emitted as soon as they are known to be maximal. Extract
// and ExtractUser push whole trajectories through it; ingest pushes
// live samples, so a deployment extracts footprints without buffering
// whole sessions.
//
// The zero value is not usable; construct with NewExtractor. A session
// ends with Flush, which emits the final region (if any) and resets
// the extractor for the next session.
type Extractor struct {
	cfg   Config
	epsSq float64
	emit  func(RoI)

	// Current region R: its locations, kept because both the exact
	// diameter check and the back-tracking step need them. The buffer
	// is reused across regions and sessions, so once it has grown to
	// the longest run Push allocates nothing.
	run []traj.Location
	mbr geom.Rect
}

// NewExtractor returns a streaming extractor that calls emit for every
// finalized RoI. emit must not retain its argument past the call.
func NewExtractor(cfg Config, emit func(RoI)) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if emit == nil {
		panic("extract: NewExtractor with nil emit")
	}
	return &Extractor{cfg: cfg, epsSq: cfg.Epsilon * cfg.Epsilon, emit: emit}, nil
}

// Push feeds the next location of the current session. Locations must
// arrive in temporal order.
func (e *Extractor) Push(l traj.Location) {
	if len(e.run) == 0 {
		e.run = append(e.run, l)
		e.mbr = geom.RectFromPoints(l.P)
		return
	}
	if e.fits(l.P, e.run) {
		e.run = append(e.run, l)
		e.mbr = e.mbr.ExtendPoint(l.P)
		return
	}
	if len(e.run) >= e.cfg.Tau {
		e.emitRun()
		e.run = append(e.run[:0], l)
		e.mbr = geom.RectFromPoints(l.P)
		return
	}
	// Back-tracking (Alg. 1 lines 10-14): start a new region at l and
	// extend it backwards through the trailing locations of the old run
	// while ε holds. l goes at the end of the buffer, so the region
	// kept so far is always the buffer's suffix run[j+1:] and each
	// trailing location is checked against exactly that (the ε checks
	// are pairwise, so order does not matter). The kept suffix then
	// moves to the front, in temporal order, in place.
	n := len(e.run)
	e.run = append(e.run, l)
	e.mbr = geom.RectFromPoints(l.P)
	keep := n
	for j := n - 1; j >= 0 && e.fits(e.run[j].P, e.run[j+1:]); j-- {
		e.mbr = e.mbr.ExtendPoint(e.run[j].P)
		keep = j
	}
	e.run = e.run[:copy(e.run, e.run[keep:])]
}

// Flush ends the current session, emitting the trailing region if it
// qualifies (Alg. 1 lines 18-20), and resets the extractor.
func (e *Extractor) Flush() {
	if len(e.run) >= e.cfg.Tau {
		e.emitRun()
	}
	e.run = e.run[:0]
}

// PendingLocations returns a copy of the not-yet-finalized current
// region's locations in temporal order. Together with the config it
// was built with it is the extractor's complete state: replaying the
// returned locations through Push on a fresh extractor (same config)
// reconstructs run and MBR exactly, because the pending run already satisfies the ε constraint
// — every temporal prefix of an ε-valid run is itself ε-valid (both
// pairwise distances and MBR diagonals only shrink on subsets), so no
// replayed Push can emit or back-track. The ingest snapshot relies on
// this to checkpoint live sessions.
func (e *Extractor) PendingLocations() []traj.Location {
	if len(e.run) == 0 {
		return nil
	}
	return append([]traj.Location(nil), e.run...)
}

func (e *Extractor) emitRun() {
	e.emit(RoI{
		Rect:   e.mbr,
		TStart: e.run[0].T,
		TEnd:   e.run[len(e.run)-1].T,
		Count:  len(e.run),
	})
}

// fits reports whether point p can join region, whose MBR is e.mbr,
// without violating ε under the configured mode.
func (e *Extractor) fits(p geom.Point, region []traj.Location) bool {
	ext := e.mbr.ExtendPoint(p)
	if e.cfg.Mode == ExtentMBR {
		return ext.Diagonal() <= e.cfg.Epsilon
	}
	// Fast accept: if the extended MBR's diagonal is within ε, every
	// pairwise distance is too.
	if ext.Diagonal() <= e.cfg.Epsilon {
		return true
	}
	// Fast reject: a single axis extent beyond ε already implies a
	// pair (p and the extreme point on that axis) farther than ε apart
	// in that coordinate alone.
	if ext.Width() > e.cfg.Epsilon || ext.Height() > e.cfg.Epsilon {
		return false
	}
	// Exact pairwise check of the candidate against the region.
	for i := range region {
		if p.DistSq(region[i].P) > e.epsSq {
			return false
		}
	}
	return true
}
