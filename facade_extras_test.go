package geofootprint

import (
	"bytes"
	"strings"
	"testing"
)

// TestFacadeExtras exercises the extension surfaces through the public
// API only.
func TestFacadeExtras(t *testing.T) {
	_, db := endToEnd(t)
	n := db.Len()

	// kNN graph.
	uc := NewUserCentricIndex(db)
	g := KNNGraph(uc, 3)
	if len(g) != n {
		t.Fatalf("graph rows = %d", len(g))
	}
	for u, row := range g {
		for _, r := range row {
			if r.ID == db.IDs[u] {
				t.Fatalf("self loop at %d", u)
			}
		}
	}

	// Grid searcher parity with linear scan.
	q := db.Footprints[0]
	gs, err := NewGridSearcher(db, UnitSquare(), 32)
	if err != nil {
		t.Fatal(err)
	}
	lin := NewLinearScan(db)
	a, b := gs.TopK(q, 5), lin.TopK(q, 5)
	if len(a) != len(b) {
		t.Fatalf("grid count mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("grid result %d: %v vs %v", i, a[i], b[i])
		}
	}

	// Top pairs.
	pairs := TopSimilarPairs(uc, 5)
	if len(pairs) == 0 {
		t.Fatal("no similar pairs")
	}
	for _, p := range pairs {
		if p.A >= p.B || p.Score <= 0 {
			t.Fatalf("bad pair %+v", p)
		}
	}

	// Compaction preserves similarity.
	cf := CompactFootprint(q)
	if d := Similarity(cf, db.Footprints[1]) - Similarity(q, db.Footprints[1]); d > 1e-9 || d < -1e-9 {
		t.Fatalf("compaction changed similarity by %v", d)
	}

	// Silhouette over a small clustering.
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	m := FootprintDistances(db, idxs)
	keep := FootprintDistances(db, idxs) // Silhouette needs the distances after clustering consumed m
	labels, err := ClusterUsers(m, 5, AverageLink)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Silhouette(keep, labels)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Errorf("silhouette %v for persona-structured data, want > 0", s)
	}

	// SVG rendering through the façade.
	var buf bytes.Buffer
	if err := FootprintSVG(&buf, q, 200, 200); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Error("bad SVG output")
	}
}

func TestFacadeSessionTools(t *testing.T) {
	// Streaming extraction equals batch extraction via the façade.
	ds, _ := endToEnd(t)
	session := ds.Users[0].Sessions[0]
	batch := ExtractRoIs(session, DefaultExtraction())
	var streamed []RoI
	ex, err := NewStreamingExtractor(DefaultExtraction(), func(r RoI) {
		streamed = append(streamed, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range session {
		ex.Push(l)
	}
	ex.Flush()
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d RoIs, batch %d", len(streamed), len(batch))
	}

	// SplitSessions round-trips a flattened user.
	var stream Trajectory
	for _, s := range ds.Users[0].Sessions {
		stream = append(stream, s...)
	}
	parts := SplitSessions(stream, 600)
	if len(parts) != len(ds.Users[0].Sessions) {
		t.Errorf("split into %d sessions, want %d", len(parts), len(ds.Users[0].Sessions))
	}

	// Parameter sweep runs through the façade.
	stats := SweepExtractionParams(ds, []float64{0.02}, []int{30})
	if len(stats) != 1 || stats[0].AvgRegions <= 0 {
		t.Errorf("sweep stats: %+v", stats)
	}
}

func TestFacadeHTTP(t *testing.T) {
	_, db := endToEnd(t)
	srv := NewServer(db)
	if srv.Handler() == nil {
		t.Fatal("nil handler")
	}
}
