package ingest

import (
	"sort"
	"sync/atomic"

	"geofootprint/internal/core"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/traj"
)

// sessionizer routes a multiplexed sample stream to per-user streaming
// extractors, splitting sessions on time gaps. The positioning system
// reports no explicit "session over" event; a user whose next sample
// arrives more than `gap` seconds after their previous one — or with a
// non-increasing timestamp, which a fresh device clock can produce —
// has evidently left and returned, so the open session is flushed
// (emitting its trailing RoI if it qualifies, Algorithm 1 lines 18-20)
// before the new one starts.
//
// The sessionizer is the single-writer heart of the pipeline: exactly
// one goroutine (the apply loop in live mode, the replayer during
// recovery) pushes samples, which is what makes the emitted RoI
// sequence — and therefore the database — a pure function of the
// record sequence.
type sessionizer struct {
	cfg   extract.Config
	gap   float64
	users map[int]*userSession
	// dirty lists users that emitted RoIs since the last collect, in
	// first-emission order: a deterministic apply order, unlike a map
	// walk.
	dirty []int

	// Counters are atomic because Stats reads them from other
	// goroutines while the apply loop advances them.
	rois     atomic.Uint64 // total RoIs emitted
	sessions atomic.Uint64 // total sessions closed
}

func (sz *sessionizer) roisEmitted() uint64    { return sz.rois.Load() }
func (sz *sessionizer) sessionsClosed() uint64 { return sz.sessions.Load() }

type userSession struct {
	ex    *extract.Extractor
	lastT float64
	hasT  bool
	rois  []extract.RoI
}

func newSessionizer(cfg extract.Config, gap float64) (*sessionizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &sessionizer{cfg: cfg, gap: gap, users: make(map[int]*userSession)}, nil
}

func (sz *sessionizer) state(user int) (*userSession, error) {
	st, ok := sz.users[user]
	if !ok {
		st = &userSession{}
		ex, err := extract.NewExtractor(sz.cfg, func(r extract.RoI) {
			if len(st.rois) == 0 {
				sz.dirty = append(sz.dirty, user)
			}
			st.rois = append(st.rois, r)
			sz.rois.Add(1)
		})
		if err != nil {
			return nil, err
		}
		st.ex = ex
		sz.users[user] = st
	}
	return st, nil
}

// push feeds one sample, flushing the user's open session first when
// the gap rule says it ended.
func (sz *sessionizer) push(s Sample) error {
	st, err := sz.state(s.User)
	if err != nil {
		return err
	}
	if st.hasT && (s.T <= st.lastT || s.T-st.lastT > sz.gap) {
		st.ex.Flush()
		sz.sessions.Add(1)
	}
	st.ex.Push(traj.Location{P: geom.Point{X: s.X, Y: s.Y}, T: s.T})
	st.lastT, st.hasT = s.T, true
	return nil
}

// UserRoIs is the unit of application to the database: the RoIs one
// user finished between two collects, in emission order — or, when Op
// is OpUpsert or OpRemove, an edit of the user's footprint (an upsert's
// new footprint is Regions).
type UserRoIs struct {
	User    int
	RoIs    []extract.RoI
	Op      Op
	Regions core.Footprint
}

// collect appends the RoIs emitted since the last collect to dst,
// grouped per user in first-emission order, and resets the dirty
// tracking.
func (sz *sessionizer) collect(dst []UserRoIs) []UserRoIs {
	for _, user := range sz.dirty {
		st := sz.users[user]
		dst = append(dst, UserRoIs{User: user, RoIs: st.rois})
		st.rois = nil
	}
	sz.dirty = sz.dirty[:0]
	return dst
}

// SessionState is the checkpointable state of one user's open session.
type SessionState struct {
	User    int
	LastT   float64
	HasT    bool
	Pending []traj.Location
}

// State is everything the pipeline needs to resume exactly where a
// snapshot was taken: the last applied WAL sequence number and every
// open session. It is taken at batch boundaries, when no RoIs are
// waiting to be applied, so sessions and Seq are the whole story.
type State struct {
	Seq      uint64
	Sessions []SessionState
}

// snapshot captures all open sessions, sorted by user so snapshot
// bytes are reproducible. It must only be called at a batch boundary
// (after collect), when no emitted-but-unapplied RoIs exist.
func (sz *sessionizer) snapshot() []SessionState {
	var out []SessionState
	for user, st := range sz.users {
		pending := st.ex.PendingLocations()
		if !st.hasT && len(pending) == 0 {
			continue
		}
		out = append(out, SessionState{User: user, LastT: st.lastT, HasT: st.hasT, Pending: pending})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// restore rebuilds the open sessions of a snapshot by replaying each
// pending run through a fresh extractor — exact by the prefix-validity
// argument on Extractor.PendingLocations.
func (sz *sessionizer) restore(sessions []SessionState) error {
	for _, s := range sessions {
		st, err := sz.state(s.User)
		if err != nil {
			return err
		}
		for _, l := range s.Pending {
			st.ex.Push(l)
		}
		st.lastT, st.hasT = s.LastT, s.HasT
		if len(st.rois) != 0 {
			// Cannot happen for a snapshot taken at a batch boundary;
			// guard against a corrupted or hand-built state.
			return errCorruptState
		}
	}
	return nil
}
