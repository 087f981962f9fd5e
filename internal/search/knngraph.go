package search

import (
	"context"

	"geofootprint/internal/par"
)

// KNNGraph computes, for every user of the index's database, its k
// most similar other users (self excluded) — the k-nearest-neighbour
// graph over footprint similarity. It is the batch building block
// behind link recommendation in geo-social networks (Section 1) and
// graph-based clustering. Rows are index-aligned with the database;
// users with zero norm get nil rows. Runs on `workers` goroutines
// (GOMAXPROCS if <= 0).
func KNNGraph(ix *UserCentricIndex, k, workers int) [][]Result {
	db := ix.db
	n := db.Len()
	out := make([][]Result, n)
	if k <= 0 || n == 0 {
		return out
	}
	par.For(n, workers, 1, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			if db.Norms[u] != 0 {
				out[u] = neighboursOf(ix, u, k)
			}
		}
	})
	return out
}

// neighboursOf returns the k users most similar to stored user u,
// excluding u: the one loop queried with u's row.
func neighboursOf(ix *UserCentricIndex, u, k int) []Result {
	db := ix.db
	res, _ := TopK(context.Background(), db, ix, db.Row(u), u, k+1, nil, nil)
	out := make([]Result, 0, k)
	for _, r := range res {
		if r.ID == db.IDs[u] {
			continue
		}
		out = append(out, r)
		if len(out) == k {
			break
		}
	}
	return out
}
