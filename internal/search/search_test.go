package search

import (
	"math"
	"math/rand"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/store"
	"geofootprint/internal/topk"
)

// clusteredFootprints draws footprints around a handful of hotspot
// centers so that users genuinely overlap, as in a store where
// popular areas attract many customers.
func clusteredFootprints(rng *rand.Rand, users, hotspots int) []core.Footprint {
	type hs struct{ x, y float64 }
	centers := make([]hs, hotspots)
	for i := range centers {
		centers[i] = hs{rng.Float64(), rng.Float64()}
	}
	fps := make([]core.Footprint, users)
	for u := range fps {
		n := 1 + rng.Intn(8)
		f := make(core.Footprint, n)
		for i := range f {
			c := centers[rng.Intn(hotspots)]
			x := c.x + (rng.Float64()-0.5)*0.05
			y := c.y + (rng.Float64()-0.5)*0.05
			f[i] = core.Region{
				Rect: geom.Rect{
					MinX: x, MinY: y,
					MaxX: x + 0.005 + rng.Float64()*0.02,
					MaxY: y + 0.005 + rng.Float64()*0.02,
				},
				Weight: float64(1 + rng.Intn(2)),
			}
		}
		core.SortByMinX(f)
		fps[u] = f
	}
	return fps
}

func testDB(t *testing.T, rng *rand.Rand, users int) *store.FootprintDB {
	t.Helper()
	fps := clusteredFootprints(rng, users, 12)
	ids := make([]int, users)
	for i := range ids {
		ids[i] = i * 2 // non-dense external IDs
	}
	db, err := store.FromFootprints("search-test", ids, fps)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	return db
}

// referenceTopK ranks every user by the naive grid similarity — the
// slowest but most trustworthy oracle.
func referenceTopK(db *store.FootprintDB, q core.Footprint, k int) []Result {
	col := topk.New(k)
	for i := range db.IDs {
		if sim := core.SimilarityNaive(db.Row(i), q); sim > 0 {
			col.Offer(db.IDs[i], sim)
		}
	}
	return col.Results()
}

// sameRanking compares two result lists allowing tiny floating-point
// score differences (the methods accumulate in different orders).
func sameRanking(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s: result %d score %v, want %v", label, i, got[i].Score, want[i].Score)
		}
	}
	// IDs must match except where adjacent scores are within the
	// tolerance of each other (legitimate near-tie reordering).
	for i := range want {
		if got[i].ID == want[i].ID {
			continue
		}
		nearTie := false
		for j := range want {
			if want[j].ID == got[i].ID && math.Abs(want[j].Score-got[i].Score) <= 1e-9 {
				nearTie = true
				break
			}
		}
		if !nearTie {
			t.Fatalf("%s: result %d ID %d (score %v) not justified by reference %v",
				label, i, got[i].ID, got[i].Score, want)
		}
	}
}

func TestAllMethodsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := testDB(t, rng, 150)

	linear := NewLinearScan(db)
	roiSTR := NewRoIIndex(db, BuildSTR, 16)
	roiIns := NewRoIIndex(db, BuildInsert, 16)
	ucSTR := NewUserCentricIndex(db, BuildSTR, 16)
	ucIns := NewUserCentricIndex(db, BuildInsert, 16)

	if err := roiSTR.Tree().Validate(); err != nil {
		t.Fatalf("RoI STR tree invalid: %v", err)
	}
	if err := roiIns.Tree().Validate(); err != nil {
		t.Fatalf("RoI insert tree invalid: %v", err)
	}

	for trial := 0; trial < 25; trial++ {
		var q core.Footprint
		if trial%2 == 0 {
			q = db.Footprints[rng.Intn(db.Len())] // query sampled from data
		} else {
			q = clusteredFootprints(rng, 1, 12)[0] // fresh query
		}
		k := 1 + rng.Intn(10)
		want := referenceTopK(db, q, k)
		sameRanking(t, "linear", linear.TopK(q, k), want)
		sameRanking(t, "iterative/STR", roiSTR.TopKIterative(q, k), want)
		sameRanking(t, "batch/STR", roiSTR.TopKBatch(q, k), want)
		sameRanking(t, "iterative/insert", roiIns.TopKIterative(q, k), want)
		sameRanking(t, "batch/insert", roiIns.TopKBatch(q, k), want)
		sameRanking(t, "user-centric/STR", ucSTR.TopK(q, k), want)
		sameRanking(t, "user-centric/insert", ucIns.TopK(q, k), want)
		sameRanking(t, "roi default TopK", roiSTR.TopK(q, k), want)
	}
}

func TestSelfQueryRanksFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := testDB(t, rng, 80)
	uc := NewUserCentricIndex(db, BuildSTR, 0)
	for trial := 0; trial < 10; trial++ {
		u := rng.Intn(db.Len())
		if db.Norm(u) == 0 {
			continue
		}
		got := uc.TopK(db.Footprints[u], 3)
		if len(got) == 0 {
			t.Fatalf("self query returned nothing")
		}
		if got[0].Score < 1-1e-9 {
			t.Fatalf("self query top score = %v, want 1", got[0].Score)
		}
		// The user itself must be among the perfect scorers.
		found := false
		for _, r := range got {
			if r.ID == db.IDs[u] && r.Score > 1-1e-9 {
				found = true
			}
		}
		if !found {
			t.Fatalf("user %d not a perfect scorer for its own footprint: %v", db.IDs[u], got)
		}
	}
}

func TestZeroNormQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := testDB(t, rng, 20)
	degenerate := core.Footprint{{Rect: geom.Rect{MinX: 1, MinY: 1, MaxX: 1, MaxY: 1}, Weight: 1}}
	for _, s := range []Searcher{
		NewLinearScan(db),
		NewRoIIndex(db, BuildSTR, 0),
		NewUserCentricIndex(db, BuildSTR, 0),
	} {
		if got := s.TopK(degenerate, 5); got != nil {
			t.Errorf("zero-norm query returned %v, want nil", got)
		}
		if got := s.TopK(nil, 5); got != nil {
			t.Errorf("empty query returned %v, want nil", got)
		}
		if got := s.TopK(db.Footprints[0], 0); got != nil {
			t.Errorf("k=0 returned %v, want nil", got)
		}
	}
}

func TestDisjointQueryReturnsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := testDB(t, rng, 40)
	far := core.Footprint{{Rect: geom.Rect{MinX: 50, MinY: 50, MaxX: 51, MaxY: 51}, Weight: 1}}
	for _, s := range []Searcher{
		NewLinearScan(db),
		NewRoIIndex(db, BuildSTR, 0),
		NewUserCentricIndex(db, BuildSTR, 0),
	} {
		if got := s.TopK(far, 5); len(got) != 0 {
			t.Errorf("disjoint query returned %v", got)
		}
	}
}

func TestEmptyDatabase(t *testing.T) {
	db, err := store.FromFootprints("empty", nil, nil)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	q := core.Footprint{{Rect: geom.Rect{MaxX: 1, MaxY: 1}, Weight: 1}}
	for _, s := range []Searcher{
		NewLinearScan(db),
		NewRoIIndex(db, BuildSTR, 0),
		NewRoIIndex(db, BuildInsert, 0),
		NewUserCentricIndex(db, BuildSTR, 0),
	} {
		if got := s.TopK(q, 5); len(got) != 0 {
			t.Errorf("empty db returned %v", got)
		}
	}
}

func TestUsersWithEmptyFootprints(t *testing.T) {
	// Users who produced no RoIs must be skipped, not crash.
	rng := rand.New(rand.NewSource(23))
	fps := clusteredFootprints(rng, 10, 3)
	fps[3] = nil
	fps[7] = core.Footprint{}
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	db, err := store.FromFootprints("sparse", ids, fps)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	q := fps[0]
	want := referenceTopK(db, q, 5)
	sameRanking(t, "linear", NewLinearScan(db).TopK(q, 5), want)
	sameRanking(t, "batch", NewRoIIndex(db, BuildSTR, 0).TopKBatch(q, 5), want)
	sameRanking(t, "user-centric", NewUserCentricIndex(db, BuildSTR, 0).TopK(q, 5), want)
}

func TestPayloadPacking(t *testing.T) {
	cases := [][2]int{{0, 0}, {1, 2}, {377000, 16}, {1 << 30, 1<<regionBits - 1}}
	for _, c := range cases {
		u, r := unpackPayload(packPayload(c[0], c[1]))
		if u != c[0] || r != c[1] {
			t.Errorf("pack/unpack(%d, %d) = (%d, %d)", c[0], c[1], u, r)
		}
	}
}

func TestGridIndexMatchesRTree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := testDB(t, rng, 120)
	gix, err := NewGridIndex(db, geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 32)
	if err != nil {
		t.Fatalf("NewGridIndex: %v", err)
	}
	lin := NewLinearScan(db)
	for trial := 0; trial < 20; trial++ {
		q := db.Footprints[rng.Intn(db.Len())]
		k := 1 + rng.Intn(8)
		want := lin.TopK(q, k)
		sameRanking(t, "grid", gix.TopK(q, k), want)
	}
	// Edge cases mirror the other searchers.
	if got := gix.TopK(nil, 5); got != nil {
		t.Errorf("empty query returned %v", got)
	}
	if got := gix.TopK(db.Footprints[0], 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if s := gix.Grid().Stats(); s.Entries != db.NumRegions() {
		t.Errorf("grid holds %d entries, want %d", s.Entries, db.NumRegions())
	}
}
