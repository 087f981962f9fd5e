package search

import (
	"math"
	"math/rand"
	"testing"

	"geofootprint/internal/core"
)

func TestExplainMatchesSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	db := testDB(t, rng, 40)
	for trial := 0; trial < 20; trial++ {
		u := rng.Intn(db.Len())
		q := db.Footprints[rng.Intn(db.Len())]
		qn := core.Norm(q)
		want := core.SimilarityJoin(db.Footprints[u], q, db.Norm(u), qn)
		ex := Explain(db.Footprints[u], q, db.Norm(u), qn, 0)
		if math.Abs(ex.Similarity-want) > 1e-9 {
			t.Fatalf("trial %d: explained %v, similarity %v", trial, ex.Similarity, want)
		}
		// Contributions sum to the similarity; shares to 1.
		var sumV, sumS float64
		for _, c := range ex.Contributions {
			sumV += c.Value
			sumS += c.Share
			if c.Overlap.Area() <= 0 {
				t.Fatalf("zero-area contribution listed")
			}
		}
		if want > 0 {
			if math.Abs(sumV-want) > 1e-9 {
				t.Fatalf("trial %d: contributions sum %v, want %v", trial, sumV, want)
			}
			if math.Abs(sumS-1) > 1e-9 {
				t.Fatalf("trial %d: shares sum %v", trial, sumS)
			}
		}
		// Best-first ordering.
		for i := 1; i < len(ex.Contributions); i++ {
			if ex.Contributions[i].Value > ex.Contributions[i-1].Value {
				t.Fatalf("contributions not sorted")
			}
		}
	}
}

func TestExplainTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	db := testDB(t, rng, 20)
	q := db.Footprints[0]
	qn := core.Norm(q)
	full := Explain(db.Footprints[0], q, db.Norm(0), qn, 0)
	if len(full.Contributions) < 2 {
		t.Skip("self-explanation too small to truncate")
	}
	top := Explain(db.Footprints[0], q, db.Norm(0), qn, 1)
	if len(top.Contributions) != 1 {
		t.Fatalf("truncated to %d", len(top.Contributions))
	}
	if top.Contributions[0].Value != full.Contributions[0].Value {
		t.Error("truncation changed the best pair")
	}
	if top.Similarity != full.Similarity || top.PairsExamined != full.PairsExamined {
		t.Error("truncation changed totals")
	}
}

func TestExplainZeroNorm(t *testing.T) {
	ex := Explain(nil, nil, 0, 0, 5)
	if ex.Similarity != 0 || len(ex.Contributions) != 0 {
		t.Errorf("zero-norm explanation: %+v", ex)
	}
}
