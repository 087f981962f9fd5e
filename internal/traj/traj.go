// Package traj models the raw input of the geo-footprint system: the
// regularly sampled trajectories of mobile users inside a supervised
// (e.g. indoor) environment, grouped into temporally disjoint sessions
// per user (Definition 3.1 of the paper).
//
// Coordinates are normalized to [0, 1] as in the paper's evaluation;
// timestamps are in seconds since the start of recording.
package traj

import "geofootprint/internal/geom"

// Location is one tracked position of a user: a spatial position P and
// a timestamp T (seconds).
type Location struct {
	P geom.Point
	T float64
}

// Trajectory is a temporally ordered sequence of locations sampled at a
// fixed interval Δt. One trajectory corresponds to one session, e.g. a
// single continuous visit of a customer to a store.
type Trajectory []Location

// Duration returns the time span covered by the trajectory in seconds.
func (t Trajectory) Duration() float64 {
	if len(t) < 2 {
		return 0
	}
	return t[len(t)-1].T - t[0].T
}

// MBR returns the minimum bounding rectangle of the trajectory's
// positions, or the empty rectangle for an empty trajectory.
func (t Trajectory) MBR() geom.Rect {
	m := geom.EmptyRect()
	for _, l := range t {
		m = m.ExtendPoint(l.P)
	}
	return m
}

// User holds the identifier of a tracked user together with all of the
// user's sessions (temporally disjoint trajectories, Definition 3.1).
type User struct {
	ID       int
	Sessions []Trajectory
}

// NumLocations returns the total number of tracked locations of the
// user across all sessions.
func (u *User) NumLocations() int {
	n := 0
	for _, s := range u.Sessions {
		n += len(s)
	}
	return n
}

// SplitSessions divides a continuous location stream into sessions:
// a new session starts whenever the gap between consecutive samples
// exceeds maxGap seconds. Real tracking systems emit one stream per
// user; Definition 3.1's temporally disjoint trajectories are derived
// this way. Samples must be in temporal order. Sessions share the
// input's backing array.
func SplitSessions(stream Trajectory, maxGap float64) []Trajectory {
	if len(stream) == 0 {
		return nil
	}
	var out []Trajectory
	start := 0
	for i := 1; i < len(stream); i++ {
		if stream[i].T-stream[i-1].T > maxGap {
			out = append(out, stream[start:i])
			start = i
		}
	}
	return append(out, stream[start:])
}

// Dataset is a collection of users with trajectories, corresponding to
// one "part" of the evaluation data (e.g. Part A of the ATC dataset).
type Dataset struct {
	Name string
	// SampleInterval is Δt, the fixed time difference between
	// consecutive samples, in seconds.
	SampleInterval float64
	Users          []User
}

// NumLocations returns the total number of tracked locations in the
// dataset.
func (d *Dataset) NumLocations() int {
	n := 0
	for i := range d.Users {
		n += d.Users[i].NumLocations()
	}
	return n
}

// NumSessions returns the total number of sessions in the dataset.
func (d *Dataset) NumSessions() int {
	n := 0
	for i := range d.Users {
		n += len(d.Users[i].Sessions)
	}
	return n
}
