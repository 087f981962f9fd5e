package extract

import (
	"runtime"
	"sync"

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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(d.Users) < 2 {
		for i := range d.Users {
			out[i] = ExtractUser(&d.Users[i], cfg)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = ExtractUser(&d.Users[i], cfg)
			}
		}()
	}
	for i := range d.Users {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
