package search

import (
	"math/rand"
	"testing"
)

func TestKNNGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	db := testDB(t, rng, 60)
	ix := NewUserCentricIndex(db, BuildSTR, 0)
	g := KNNGraph(ix, 4, 0)
	if len(g) != db.Len() {
		t.Fatalf("graph has %d rows", len(g))
	}
	lin := NewLinearScan(db)
	for u, row := range g {
		if db.Norm(u) == 0 {
			if row != nil {
				t.Fatalf("zero-norm user %d has neighbours", u)
			}
			continue
		}
		if len(row) > 4 {
			t.Fatalf("user %d has %d neighbours", u, len(row))
		}
		for _, r := range row {
			if r.ID == db.IDs[u] {
				t.Fatalf("user %d is its own neighbour", u)
			}
		}
		// Row matches a fresh per-user query.
		want := lin.TopK(db.Footprints[u], 5)
		wi := 0
		for _, r := range row {
			for wi < len(want) && want[wi].ID == db.IDs[u] {
				wi++
			}
			if wi >= len(want) {
				t.Fatalf("user %d: more neighbours than reference", u)
			}
			if absf(r.Score-want[wi].Score) > 1e-9 {
				t.Fatalf("user %d: neighbour score %v, want %v", u, r.Score, want[wi].Score)
			}
			wi++
		}
	}
	// Sequential equals parallel.
	seq := KNNGraph(ix, 4, 1)
	for u := range g {
		if len(seq[u]) != len(g[u]) {
			t.Fatalf("user %d: worker mismatch", u)
		}
		for i := range g[u] {
			if seq[u][i] != g[u][i] {
				t.Fatalf("user %d neighbour %d: %+v vs %+v", u, i, seq[u][i], g[u][i])
			}
		}
	}
	// k=0.
	empty := KNNGraph(ix, 0, 1)
	for _, row := range empty {
		if row != nil {
			t.Fatal("k=0 produced neighbours")
		}
	}
}
