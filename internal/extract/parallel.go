package extract

import (
	"geofootprint/internal/par"
	"geofootprint/internal/traj"
)

// ExtractUser runs Algorithm 1 over every session of a user and
// returns the concatenation of the extracted RoIs, in session order.
// Per Definition 3.3, the collection of these RoIs — disregarding
// their temporal dimension — is the user's geo-footprint.
func ExtractUser(u *traj.User, cfg Config) []RoI {
	return extractSessions(u.Sessions, cfg)
}

// ExtractDataset extracts the RoIs of every user in the dataset,
// returning one slice per user in d.Users order. If workers <= 0, it
// uses GOMAXPROCS goroutines; workers == 1 forces a sequential run.
func ExtractDataset(d *traj.Dataset, cfg Config, workers int) [][]RoI {
	out := make([][]RoI, len(d.Users))
	par.For(len(d.Users), workers, 1, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = ExtractUser(&d.Users[i], cfg)
		}
	})
	return out
}
