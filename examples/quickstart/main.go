// Quickstart: the minimal end-to-end pipeline of the geofootprint
// library — generate a small synthetic indoor-mobility dataset,
// extract every user's geo-footprint (Algorithm 1), precompute norms
// (Algorithm 2), compute a pairwise similarity (Equation 1), and run a
// top-k similarity search (Section 6).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"geofootprint"
)

func main() {
	log.SetFlags(0)

	// 1. A small synthetic "shopping mall" of 400 users, the stand-in
	//    for a real indoor tracking deployment.
	cfg, err := geofootprint.SynthPart("A", 0.00144) // ≈400 users
	if err != nil {
		log.Fatal(err)
	}
	dataset, _, err := geofootprint.GenerateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d users, %d sessions, %d tracked locations\n",
		len(dataset.Users), dataset.NumSessions(), dataset.NumLocations())

	// 2. Extract geo-footprints with the paper's parameters (ε=0.02,
	//    τ=30) and precompute every footprint's norm.
	db, err := geofootprint.BuildDB(dataset, geofootprint.DefaultExtraction())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("footprints: %d regions total (%.1f per user)\n",
		db.NumRegions(), float64(db.NumRegions())/float64(db.Len()))

	// 3. Pairwise similarity, three ways (they agree; Algorithm 4 is
	//    the fastest when norms are precomputed).
	a, b := db.Row(0), db.Row(1)
	fmt.Printf("similarity(user %d, user %d):\n", db.IDs[0], db.IDs[1])
	fmt.Printf("  one-pass sweep (Alg. 3 + norms): %.6f\n", geofootprint.Similarity(a, b))
	fmt.Printf("  sweep w/ precomputed norms:      %.6f\n",
		geofootprint.SimilaritySweep(a, b, db.Norms[0], db.Norms[1]))
	fmt.Printf("  join-based (Alg. 4):             %.6f\n",
		geofootprint.SimilarityJoin(a, b, db.Norms[0], db.Norms[1]))

	// 4. Top-k similarity search with the user-centric index
	//    (Section 6.2), the paper's fastest method.
	idx := geofootprint.NewUserCentricIndex(db)
	queryUser := db.IDs[42]
	results, err := geofootprint.MostSimilarUsers(db, idx, queryUser, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nusers most similar to user %d:\n", queryUser)
	for i, r := range results {
		fmt.Printf("  %d. user %-6d similarity %.4f\n", i+1, r.ID, r.Score)
	}
}
