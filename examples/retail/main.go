// Retail: the department-store recommendation scenario that motivates
// the paper (Section 1). Customers are tracked while shopping; each
// customer's geo-footprint captures the exhibition areas where they
// dwell. For a cold-start customer — one with no purchase history —
// the recommender finds the customers with the most similar footprints
// and recommends the products *they* bought.
//
// The example simulates purchases correlated with visited zones, shows
// a cold-start recommendation, and compares it against a popularity
// baseline.
//
// Run with:
//
//	go run ./examples/retail
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"geofootprint"
)

// The product catalogue: one product family per store zone, so that a
// customer dwelling near a zone is plausibly interested in its family.
var catalogue = []string{
	"TVs", "Laptops", "Phones", "Cameras", "Audio", "Gaming",
	"Kitchen", "Cookware", "Bedding", "Bath", "Lighting", "Rugs",
	"Menswear", "Womenswear", "Shoes", "Sportswear", "Kids", "Toys",
	"Garden", "Tools", "Paint", "Auto", "Books", "Stationery",
	"Grocery", "Bakery", "Deli", "Wine", "Coffee", "Snacks",
	"Beauty", "Pharmacy", "Optics", "Jewelry", "Watches", "Bags",
	"Bikes", "Camping", "Fishing", "Fitness", "Pets", "Aquatics",
	"Art", "Music", "Film", "Crafts", "Party", "Seasonal",
	"Furniture", "Office", "Storage", "Cleaning", "Laundry", "Baby",
}

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(9))

	// Track ~600 customers through the store.
	cfg, err := geofootprint.SynthPart("A", 0.00216)
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
	fmt.Printf("store traffic: %d customers, %d dwell regions\n", db.Len(), db.NumRegions())

	// Simulate purchase histories: customers buy products whose zone
	// they dwell near (80%) plus the occasional impulse buy (20%).
	// Zone j occupies the j-th cell of the layout grid; rather than
	// reconstruct the layout we derive "zone of a region" from its
	// position, which is exactly what a store planogram join would do.
	purchases := make(map[int][]string, db.Len())
	for i := range db.IDs {
		seen := map[string]bool{}
		for _, reg := range db.Row(i) {
			if rng.Float64() < 0.8 {
				seen[productNear(reg.Rect.Center().X, reg.Rect.Center().Y)] = true
			}
		}
		if rng.Float64() < 0.2 {
			seen[catalogue[rng.Intn(len(catalogue))]] = true
		}
		for p := range seen {
			purchases[db.IDs[i]] = append(purchases[db.IDs[i]], p)
		}
		sort.Strings(purchases[db.IDs[i]])
	}

	// A cold-start customer: tracked in the store today, but no
	// purchase history yet.
	coldStart := db.IDs[17]
	fmt.Printf("\ncold-start customer %d dwelled near: %v\n",
		coldStart, zonesOf(db.Row(idxOf(db, coldStart))))

	// Footprint-based recommendation: neighbours by geo-footprint
	// similarity, recommend what they bought.
	idx := geofootprint.NewUserCentricIndex(db)
	neighbours, err := geofootprint.MostSimilarUsers(db, idx, coldStart, 10)
	if err != nil {
		log.Fatal(err)
	}
	votes := map[string]float64{}
	for _, n := range neighbours {
		for _, p := range purchases[n.ID] {
			votes[p] += n.Score // weight votes by similarity
		}
	}
	fmt.Println("\nfootprint-based recommendations (similarity-weighted neighbour purchases):")
	for i, pv := range topProducts(votes, 5) {
		fmt.Printf("  %d. %-12s score %.3f\n", i+1, pv.name, pv.score)
	}

	// Popularity baseline: what everyone buys, footprints ignored.
	pop := map[string]float64{}
	for _, ps := range purchases {
		for _, p := range ps {
			pop[p]++
		}
	}
	fmt.Println("\npopularity baseline (same for every customer):")
	for i, pv := range topProducts(pop, 5) {
		fmt.Printf("  %d. %-12s bought by %.0f customers\n", i+1, pv.name, pv.score)
	}

	fmt.Println("\nthe footprint-based list reflects where this customer actually dwells;")
	fmt.Println("the popularity list is the same for everyone.")
}

// productNear maps a store position to the product family exhibited
// there (a 9x6 planogram over the unit square).
func productNear(x, y float64) string {
	const cols, rows = 9, 6
	c := int(x * cols)
	if c >= cols {
		c = cols - 1
	}
	r := int(y * rows)
	if r >= rows {
		r = rows - 1
	}
	return catalogue[(r*cols+c)%len(catalogue)]
}

func zonesOf(f geofootprint.Footprint) []string {
	seen := map[string]bool{}
	var out []string
	for _, reg := range f {
		p := productNear(reg.Rect.Center().X, reg.Rect.Center().Y)
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func idxOf(db *geofootprint.FootprintDB, id int) int {
	i, ok := db.IndexOf(id)
	if !ok {
		log.Fatalf("user %d not in db", id)
	}
	return i
}

type productVote struct {
	name  string
	score float64
}

func topProducts(votes map[string]float64, k int) []productVote {
	out := make([]productVote, 0, len(votes))
	for n, s := range votes {
		out = append(out, productVote{n, s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].name < out[j].name
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
