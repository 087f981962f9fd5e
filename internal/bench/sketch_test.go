package bench

import (
	"reflect"
	"testing"

	"geofootprint/internal/search"
)

// TestSketchExactOnAllParts is the exactness contract at benchmark
// level: on every part preset, TopKSketch answers the Fig3a-style
// workload byte-identically to LinearScan.TopK for k ∈ {1, 5, 50}.
func TestSketchExactOnAllParts(t *testing.T) {
	for _, part := range []string{"A", "B", "C", "D"} {
		w, err := NewWorkload(part, 0.0008, 0)
		if err != nil {
			t.Fatalf("part %s: %v", part, err)
		}
		db := w.DB
		db.EnableSketches(0, 0)
		lin := search.NewLinearScan(db)
		uc := search.NewUserCentricIndex(db, search.BuildSTR, 0)
		for _, k := range []int{1, 5, 50} {
			for qi := 0; qi < db.Len(); qi += 7 {
				q := db.Footprints[qi]
				want := lin.TopK(q, k)
				got := uc.TopKSketch(q, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("part %s k=%d query %d: sketch diverged\ngot:  %v\nwant: %v",
						part, k, qi, got, want)
				}
			}
		}
	}
}

// TestSketchSweep runs the sweep end to end at tiny scale and checks
// the report invariants: exact results at every G, stats ordered
// refined ≤ scored ≤ candidates, and a non-trivial filter (the sketch
// must refine strictly fewer users than the unpruned candidate set on
// at least the finest grid).
func TestSketchSweep(t *testing.T) {
	w, err := NewWorkload("A", 0.0008, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := SketchSweep(w, []int{16, 64}, 40, 5, 0, 7)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if !r.Identical {
			t.Fatalf("G=%d: sketch results diverged from linear scan", r.G)
		}
		if r.AvgRefined > r.AvgScored+1e-9 || r.AvgScored > r.AvgCandidates+1e-9 {
			t.Fatalf("G=%d: inconsistent averages %+v", r.G, r)
		}
		if r.RefinementRate < 0 || r.RefinementRate > 1 {
			t.Fatalf("G=%d: refinement rate %v outside [0,1]", r.G, r.RefinementRate)
		}
	}
	fine := rep.Rows[len(rep.Rows)-1]
	if fine.AvgCandidates > 0 && fine.RefinementRate >= 1 {
		t.Fatalf("G=%d filters nothing: %+v", fine.G, fine)
	}
	if w.DB.SketchesEnabled() {
		t.Fatal("SketchSweep left sketches enabled")
	}
}
