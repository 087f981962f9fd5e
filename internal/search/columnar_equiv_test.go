package search

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/store"
)

// exactRanking requires bit-identical results: the columnar kernels
// promise byte-identical arithmetic, so across backings of the same
// file there is no tolerance to allow.
func exactRanking(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result %d = {%d, %v}, want {%d, %v}",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// TestColumnarBackingEquivalence is the end-to-end acceptance property
// of the columnar snapshot: a database in memory and the same database
// saved and loaded through the columnar read path and the columnar mmap
// path, or opened column-only (the serving path, whose regions live
// only in the columns), must produce bit-identical top-k results for
// every search method, every k.
func TestColumnarBackingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	db := testDB(t, rng, 300)
	db.EnableSketches(32, 2)

	colPath := filepath.Join(t.TempDir(), "db.col")
	if err := db.Save(colPath); err != nil {
		t.Fatalf("save columnar: %v", err)
	}

	backings := map[string]*store.FootprintDB{"aos": db}
	var err error
	if backings["col-read"], err = store.LoadColumnar(colPath, colstore.ModeRead); err != nil {
		t.Fatalf("load columnar read: %v", err)
	}
	if mm, err := store.LoadColumnar(colPath, colstore.ModeMmap); err == nil {
		backings["col-mmap"] = mm
	} else {
		t.Logf("mmap unavailable, skipping that backing: %v", err)
	}
	if backings["col-open"], err = store.Open(colPath); err != nil {
		t.Fatalf("open column-only: %v", err)
	}

	type methods struct {
		linear *LinearScan
		roi    *RoIIndex
		uc     *UserCentricIndex
	}
	built := map[string]methods{}
	for name, b := range backings {
		built[name] = methods{
			linear: NewLinearScan(b),
			roi:    NewRoIIndex(b, BuildSTR, 16),
			uc:     NewUserCentricIndex(b, BuildSTR, 16),
		}
	}

	queries := clusteredFootprints(rng, 10, 12)
	for qi, q := range queries {
		for _, k := range []int{1, 5, 50} {
			ref := built["aos"]
			want := map[string][]Result{
				"linear":    ref.linear.TopK(q, k),
				"iterative": ref.roi.TopKIterative(q, k),
				"batch":     ref.roi.TopKBatch(q, k),
				"uc":        ref.uc.TopK(q, k),
				"sketch":    ref.uc.TopKSketch(q, k),
			}
			// The in-memory ranking must itself be correct (oracle check
			// keeps this test honest, not just self-consistent).
			sameRanking(t, "aos/linear", want["linear"], referenceTopK(db, q, k))

			for name, m := range built {
				if name == "aos" {
					continue
				}
				prefix := name + "/q" + string(rune('0'+qi)) + "/"
				exactRanking(t, prefix+"linear", m.linear.TopK(q, k), want["linear"])
				exactRanking(t, prefix+"iterative", m.roi.TopKIterative(q, k), want["iterative"])
				exactRanking(t, prefix+"batch", m.roi.TopKBatch(q, k), want["batch"])
				exactRanking(t, prefix+"uc", m.uc.TopK(q, k), want["uc"])
				exactRanking(t, prefix+"sketch", m.uc.TopKSketch(q, k), want["sketch"])
			}
		}
	}

	// The whole-corpus loops read every row through the accessors: on
	// the column-only backing they must see every user, and score them
	// with the same bits.
	refGraph := KNNGraph(built["aos"].uc, 5, 2)
	refPairs := TopSimilarPairs(built["aos"].uc, 20, 2)
	refGrid, err := NewGridIndex(db, unitSquare, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range built {
		graph := KNNGraph(m.uc, 5, 2)
		for u := range refGraph {
			exactRanking(t, name+"/knngraph", graph[u], refGraph[u])
		}
		if pairs := TopSimilarPairs(m.uc, 20, 2); !slices.Equal(pairs, refPairs) || len(pairs) == 0 {
			t.Fatalf("%s: TopSimilarPairs %v, want %v", name, pairs, refPairs)
		}
		grid, err := NewGridIndex(backings[name], unitSquare, 32)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			exactRanking(t, name+"/grid/q"+string(rune('0'+qi)), grid.TopK(q, 5), refGrid.TopK(q, 5))
		}
	}

	for name, b := range backings {
		wantBacked := name != "aos"
		if b.ColumnarBacked() != wantBacked {
			t.Fatalf("%s: ColumnarBacked = %v, want %v", name, b.ColumnarBacked(), wantBacked)
		}
		wantBacking := "materialised"
		if name == "col-open" {
			wantBacking = "columns"
		}
		if got := b.Backing(); got != wantBacking {
			t.Fatalf("%s: backing %q after every query, want %q", name, got, wantBacking)
		}
	}
}

var unitSquare = geom.Rect{MaxX: 1, MaxY: 1}

// TestColumnarBackingEquivalenceDegenerate covers the edge queries on
// a columnar-backed database: nil, zero-area, disjoint.
func TestColumnarBackingEquivalenceDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(8192))
	db := testDB(t, rng, 50)
	path := filepath.Join(t.TempDir(), "db.col")
	if err := db.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := store.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, s := range []interface {
		TopK(core.Footprint, int) []Result
	}{
		NewLinearScan(loaded),
		NewRoIIndex(loaded, BuildSTR, 0),
		NewUserCentricIndex(loaded, BuildSTR, 0),
	} {
		if got := s.TopK(nil, 5); got != nil {
			t.Fatalf("nil query on columnar backing: %v", got)
		}
		if got := s.TopK(loaded.Footprints[0], 0); got != nil {
			t.Fatalf("k=0 on columnar backing: %v", got)
		}
	}
}
