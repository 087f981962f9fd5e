package classify

import (
	"math/rand"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// plantedWorld builds users in three well-separated areas with labels
// matching the areas.
func plantedWorld(t *testing.T, perClass int) (*store.FootprintDB, map[int]string, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	centers := []struct {
		x, y float64
		lbl  string
	}{
		{0.2, 0.2, "electronics"},
		{0.7, 0.3, "fashion"},
		{0.4, 0.8, "grocery"},
	}
	var fps []core.Footprint
	var ids []int
	truth := make([]string, 0, 3*perClass)
	for ci, c := range centers {
		for u := 0; u < perClass; u++ {
			var f core.Footprint
			for r := 0; r < 4; r++ {
				x := c.x + (rng.Float64()-0.5)*0.1
				y := c.y + (rng.Float64()-0.5)*0.1
				f = append(f, core.Region{
					Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.04, MaxY: y + 0.04},
					Weight: 1,
				})
			}
			core.SortByMinX(f)
			ids = append(ids, ci*1000+u)
			fps = append(fps, f)
			truth = append(truth, c.lbl)
		}
	}
	db, err := store.FromFootprints("knn", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[int]string{}
	for i, id := range ids {
		// Label only half of each class; the rest are "unknown"
		// users that must not break voting.
		if i%2 == 0 {
			labels[id] = truth[i]
		}
	}
	return db, labels, truth
}

func TestClassifierRecoversPlantedLabels(t *testing.T) {
	db, labels, truth := plantedWorld(t, 20)
	idx := search.NewUserCentricIndex(db, search.BuildSTR, 0)
	c, err := New(db, idx, labels, 5)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for i, id := range db.IDs {
		if _, labelled := labels[id]; labelled {
			continue // evaluate only unlabelled users
		}
		p, err := c.ClassifyUser(id)
		if err != nil {
			t.Fatalf("ClassifyUser(%d): %v", id, err)
		}
		total++
		if p.Label == truth[i] {
			correct++
		}
		if p.Neighbours == 0 {
			t.Errorf("user %d: no labelled neighbours voted", id)
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Errorf("accuracy on unlabelled users = %.2f, want >= 0.95", acc)
	}
}

func TestClassifyFreshFootprint(t *testing.T) {
	db, labels, _ := plantedWorld(t, 15)
	idx := search.NewUserCentricIndex(db, search.BuildSTR, 0)
	c, err := New(db, idx, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh visitor dwelling in the "fashion" area. No user has ID
	// -1, so every neighbour votes.
	q := core.Footprint{{Rect: geom.Rect{MinX: 0.7, MinY: 0.3, MaxX: 0.74, MaxY: 0.34}, Weight: 1}}
	p := c.predict(q, -1)
	if p.Label != "fashion" {
		t.Errorf("Label = %q, want fashion (votes %v)", p.Label, p.Votes)
	}
	if p.Score <= 0 || p.Neighbours == 0 {
		t.Errorf("degenerate prediction: %+v", p)
	}
	// A visitor overlapping nobody.
	far := core.Footprint{{Rect: geom.Rect{MinX: 10, MinY: 10, MaxX: 11, MaxY: 11}, Weight: 1}}
	p = c.predict(far, -1)
	if p.Label != "" || p.Neighbours != 0 {
		t.Errorf("far query should predict nothing: %+v", p)
	}
}

func TestLeaveOneOutEvaluate(t *testing.T) {
	db, labels, _ := plantedWorld(t, 20)
	idx := search.NewUserCentricIndex(db, search.BuildSTR, 0)
	c, err := New(db, idx, labels, 5)
	if err != nil {
		t.Fatal(err)
	}
	if acc := c.Evaluate(); acc < 0.95 {
		t.Errorf("leave-one-out accuracy = %.2f, want >= 0.95", acc)
	}
}

func TestClassifierErrors(t *testing.T) {
	db, labels, _ := plantedWorld(t, 3)
	idx := search.NewLinearScan(db)
	if _, err := New(db, idx, labels, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(db, idx, map[int]string{}, 3); err == nil {
		t.Error("empty labels accepted")
	}
	c, _ := New(db, idx, labels, 3)
	if _, err := c.ClassifyUser(-5); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestTieBreaking(t *testing.T) {
	// Two labels with exactly equal votes: the lexicographically
	// smaller label wins, deterministically.
	db, _, _ := plantedWorld(t, 4)
	idx := search.NewLinearScan(db)
	labels := map[int]string{db.IDs[0]: "zeta", db.IDs[1]: "alpha"}
	c, err := New(db, idx, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Query equally similar to users 0 and 1 (identical areas →
	// near-equal scores); whatever the scores, the prediction must
	// be deterministic across runs.
	q := db.Footprints[2]
	first := c.predict(q, -1)
	for i := 0; i < 5; i++ {
		if got := c.predict(q, -1); got.Label != first.Label {
			t.Fatalf("nondeterministic prediction: %q vs %q", got.Label, first.Label)
		}
	}
}
