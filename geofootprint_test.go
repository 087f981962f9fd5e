package geofootprint

import (
	"math"
	"testing"
)

// endToEnd builds a small synthetic world through the public API only.
func endToEnd(t *testing.T) (*Dataset, *FootprintDB) {
	t.Helper()
	cfg, err := SynthPart("A", 0.0005) // ~139 users
	if err != nil {
		t.Fatalf("SynthPart: %v", err)
	}
	ds, personas, err := GenerateDataset(cfg)
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	if len(personas) != len(ds.Users) {
		t.Fatalf("personas/users mismatch")
	}
	db, err := BuildDB(ds, DefaultExtraction())
	if err != nil {
		t.Fatalf("BuildDB: %v", err)
	}
	return ds, db
}

func TestPublicPipeline(t *testing.T) {
	ds, db := endToEnd(t)
	if db.Len() != len(ds.Users) {
		t.Fatalf("db has %d users, dataset %d", db.Len(), len(ds.Users))
	}

	// Extraction through the single-user entry point agrees with
	// the bulk path.
	u := &ds.Users[0]
	f := ExtractFootprint(u, DefaultExtraction(), UnitWeight)
	if len(f) != len(db.Footprints[0]) {
		t.Errorf("per-user extraction: %d regions, bulk: %d", len(f), len(db.Footprints[0]))
	}
	if got, want := Norm(f), db.Norms[0]; math.Abs(got-want) > 1e-12 {
		t.Errorf("Norm = %v, stored %v", got, want)
	}

	// All similarity entry points agree.
	q := db.Footprints[0]
	other := db.Footprints[1]
	full := Similarity(q, other)
	sweep := SimilaritySweep(q, other, db.Norms[0], db.Norms[1])
	join := SimilarityJoin(q, other, db.Norms[0], db.Norms[1])
	if math.Abs(full-sweep) > 1e-9 || math.Abs(full-join) > 1e-9 {
		t.Errorf("similarity entry points disagree: %v %v %v", full, sweep, join)
	}

	// Disjoint-region decomposition preserves the norm.
	var ssq float64
	for _, dr := range DisjointRegions(q) {
		ssq += dr.Rect.Area() * dr.Weight * dr.Weight
	}
	if n := Norm(q); math.Abs(math.Sqrt(ssq)-n) > 1e-9 {
		t.Errorf("decomposition norm %v != %v", math.Sqrt(ssq), n)
	}
}

func TestPublicSearch(t *testing.T) {
	_, db := endToEnd(t)
	lin := NewLinearScan(db)
	roi := NewRoIIndex(db)
	uc := NewUserCentricIndex(db)

	q := db.Footprints[3]
	want := lin.TopK(q, 5)
	if len(want) == 0 {
		t.Fatal("no results from linear scan")
	}
	for _, s := range []Searcher{roi, uc} {
		got := s.TopK(q, 5)
		if len(got) != len(want) {
			t.Fatalf("result count mismatch: %d vs %d", len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
			}
		}
	}

	// Batch search agrees too.
	batch := roi.TopKBatch(q, 5)
	for i := range want {
		if batch[i].ID != want[i].ID {
			t.Fatalf("batch result %d: %+v vs %+v", i, batch[i], want[i])
		}
	}
}

func TestMostSimilarUsers(t *testing.T) {
	_, db := endToEnd(t)
	uc := NewUserCentricIndex(db)
	id := db.IDs[7]
	res, err := MostSimilarUsers(db, uc, id, 3)
	if err != nil {
		t.Fatalf("MostSimilarUsers: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("no recommendations")
	}
	for _, r := range res {
		if r.ID == id {
			t.Error("self returned as its own neighbour")
		}
	}
	if _, err := MostSimilarUsers(db, uc, -99, 3); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestPublicClustering(t *testing.T) {
	_, db := endToEnd(t)
	n := db.Len()
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	m := FootprintDistances(db, idxs)
	labels, err := ClusterUsers(m, 9, AverageLink)
	if err != nil {
		t.Fatalf("ClusterUsers: %v", err)
	}
	if len(labels) != n {
		t.Fatalf("got %d labels", len(labels))
	}
	cfg := CharacteristicConfig{GridN: 20, MinOwnFrac: 0.3, MaxOtherFrac: 0.1}
	regions, err := CharacteristicRegions(db, idxs, labels, 9, cfg)
	if err != nil {
		t.Fatalf("CharacteristicRegions: %v", err)
	}
	if len(regions) != 9 {
		t.Fatalf("got %d region groups", len(regions))
	}
}

func TestWeightedDB(t *testing.T) {
	ds, _ := endToEnd(t)
	db, err := BuildWeightedDB(ds, DefaultExtraction())
	if err != nil {
		t.Fatalf("BuildWeightedDB: %v", err)
	}
	// Duration weights: every region's weight should be a real dwell
	// duration (≈ tau·Δt or more), not 1.
	sawHeavy := false
	for _, f := range db.Footprints {
		for _, r := range f {
			if r.Weight > 1.5 {
				sawHeavy = true
			}
		}
	}
	if !sawHeavy {
		t.Error("duration weighting produced no weights > 1.5")
	}
}

func TestSaveLoadThroughFacade(t *testing.T) {
	_, db := endToEnd(t)
	path := t.TempDir() + "/db.col"
	if err := db.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadDB(path)
	if err != nil {
		t.Fatalf("LoadDB: %v", err)
	}
	if got.Len() != db.Len() {
		t.Errorf("loaded %d users, want %d", got.Len(), db.Len())
	}
}
