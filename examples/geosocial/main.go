// Geosocial: link recommendation in a geo-social network, the second
// application the paper motivates (Section 1). The profile of each
// network user contains their frequently visited places, modelled as a
// geo-footprint; footprint similarity then models the probability that
// two users meet and become socially connected.
//
// The example builds a synthetic friendship network whose edges are
// biased towards co-located users, hides a fraction of the edges, and
// evaluates footprint similarity as a link predictor: for each user,
// the top-ranked non-friends by footprint similarity are compared with
// the hidden edges (hit-rate@k), against a random-candidate baseline.
//
// Run with:
//
//	go run ./examples/geosocial
package main

import (
	"fmt"
	"log"
	"math/rand"

	"geofootprint"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(21))

	// The "city": tracked visit data of ~700 users (the generator's
	// zones play the role of cafés, gyms, offices...).
	cfg, err := geofootprint.SynthPart("B", 0.003)
	if err != nil {
		log.Fatal(err)
	}
	dataset, _, err := geofootprint.GenerateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	db, err := geofootprint.BuildDB(dataset, geofootprint.DefaultExtraction())
	if err != nil {
		log.Fatal(err)
	}
	n := db.Len()
	fmt.Printf("geo-social network: %d users with location profiles\n", n)

	// Ground-truth friendships: probability grows with footprint
	// similarity (people who frequent the same places meet), plus a
	// few random long-distance ties.
	idx := geofootprint.NewUserCentricIndex(db)
	friends := make([]map[int]bool, n)
	for i := range friends {
		friends[i] = map[int]bool{}
	}
	addEdge := func(a, b int) {
		if a != b {
			friends[a][b] = true
			friends[b][a] = true
		}
	}
	for i := 0; i < n; i++ {
		for _, r := range idx.TopK(db.Row(i), 12) {
			j, _ := db.IndexOf(r.ID)
			if j == i {
				continue
			}
			if rng.Float64() < 0.25+0.5*r.Score {
				addEdge(i, j)
			}
		}
		if rng.Float64() < 0.3 {
			addEdge(i, rng.Intn(n)) // serendipity edge
		}
	}
	edges := 0
	for i := range friends {
		edges += len(friends[i])
	}
	edges /= 2
	fmt.Printf("friendship graph: %d edges\n", edges)

	// Hide 30% of each user's edges; can footprint similarity
	// recover them?
	hidden := make([]map[int]bool, n)
	visible := make([]map[int]bool, n)
	for i := range friends {
		hidden[i] = map[int]bool{}
		visible[i] = map[int]bool{}
		for j := range friends[i] {
			if i < j { // decide once per edge
				if rng.Float64() < 0.3 {
					hidden[i][j] = true
					hidden[j] = ensure(hidden, j)
					hidden[j][i] = true
				} else {
					visible[i][j] = true
					visible[j] = ensure(visible, j)
					visible[j][i] = true
				}
			}
		}
	}

	// Link prediction: rank non-friends by footprint similarity.
	const k = 5
	var hits, trials, randomHits int
	for i := 0; i < n; i++ {
		if len(hidden[i]) == 0 {
			continue
		}
		trials++
		cands := idx.TopK(db.Row(i), k+1+len(visible[i]))
		got := 0
		for _, r := range cands {
			j, _ := db.IndexOf(r.ID)
			if j == i || visible[i][j] {
				continue // already known
			}
			if got++; got > k {
				break
			}
			if hidden[i][j] {
				hits++
				break
			}
		}
		// Random baseline: k random non-friends.
		for t := 0; t < k; t++ {
			j := rng.Intn(n)
			if j != i && !visible[i][j] && hidden[i][j] {
				randomHits++
				break
			}
		}
	}
	fmt.Printf("\nlink prediction (hit-rate@%d over %d users with hidden edges):\n", k, trials)
	fmt.Printf("  footprint similarity: %.1f%%\n", 100*float64(hits)/float64(trials))
	fmt.Printf("  random candidates:    %.1f%%\n", 100*float64(randomHits)/float64(trials))
	fmt.Println("\nfootprint similarity recovers hidden ties far above chance because")
	fmt.Println("friendships in the simulation — as in reality — form where people co-dwell.")
}

func ensure(m []map[int]bool, i int) map[int]bool {
	if m[i] == nil {
		m[i] = map[int]bool{}
	}
	return m[i]
}
