package search

import (
	"math/rand"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/store"
	"geofootprint/internal/topk"
)

// TestWeightedSearch verifies Section 8 (iii): duration weights flow
// through the spatial indexes and top-k retrieval unchanged — all
// methods agree with a weighted linear-scan oracle.
func TestWeightedSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	fps := clusteredFootprints(rng, 80, 10)
	// Re-weight regions with synthetic dwell durations (3-60 s).
	for _, f := range fps {
		for i := range f {
			f[i].Weight = 3 + rng.Float64()*57
		}
	}
	ids := make([]int, len(fps))
	for i := range ids {
		ids[i] = i
	}
	db, err := store.FromFootprints("weighted", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(q core.Footprint, k int) []Result {
		col := topk.New(k)
		for i, f := range db.Footprints {
			if sim := core.SimilarityNaive(f, q); sim > 0 {
				col.Offer(db.IDs[i], sim)
			}
		}
		return col.Results()
	}
	roi := NewRoIIndex(db, BuildSTR, 0)
	uc := NewUserCentricIndex(db, BuildSTR, 0)
	for trial := 0; trial < 15; trial++ {
		q := db.Footprints[rng.Intn(db.Len())]
		k := 1 + rng.Intn(8)
		want := oracle(q, k)
		sameRanking(t, "weighted linear", NewLinearScan(db).TopK(q, k), want)
		sameRanking(t, "weighted iterative", roi.TopKIterative(q, k), want)
		sameRanking(t, "weighted batch", roi.TopKBatch(q, k), want)
		sameRanking(t, "weighted user-centric", uc.TopK(q, k), want)
	}
}
