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
	"geofootprint/internal/topk"
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
// of the columnar snapshot: a database built in memory and the same
// database saved and loaded through the columnar read path and the
// columnar mmap path, or opened (the serving path, whose chunks alias
// the mapping), must produce bit-identical top-k results for every
// search method, every k. A "written" database — opened, then put
// through a seeded sequence of Upsert, AppendRoIs and Remove, so its
// rows live in rewritten chunks beside mapped ones — must give every
// method the answer of a scan of SimilarityJoin over its Rows.
func TestColumnarBackingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	db := testDB(t, rng, 300)
	db.EnableSketches(32, 2)

	colPath := filepath.Join(t.TempDir(), "db.col")
	if err := db.Save(colPath); err != nil {
		t.Fatalf("save columnar: %v", err)
	}

	backings := map[string]*store.FootprintDB{"memory": db}
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
		t.Fatalf("open: %v", err)
	}
	written, err := store.Open(colPath)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	writeSeeded(written, rand.New(rand.NewSource(17)), 120)

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
			ref := built["memory"]
			want := map[string][]Result{
				"linear":    ref.linear.TopK(q, k),
				"iterative": ref.roi.TopKIterative(q, k),
				"batch":     ref.roi.TopKBatch(q, k),
				"uc":        ref.uc.TopK(q, k),
				"sketch":    ref.uc.TopKSketch(q, k),
			}
			// The in-memory ranking must itself be correct (oracle check
			// keeps this test honest, not just self-consistent).
			sameRanking(t, "memory/linear", want["linear"], referenceTopK(db, q, k))

			for name, m := range built {
				if name == "memory" {
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
	// every backing they must see every user, and score them with the
	// same bits.
	refGraph := KNNGraph(built["memory"].uc, 5, 2)
	refPairs := topPairs(built["memory"].uc, 20, 2)
	refGrid, err := NewGridIndex(db, unitSquare, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range built {
		graph := KNNGraph(m.uc, 5, 2)
		for u := range refGraph {
			exactRanking(t, name+"/knngraph", graph[u], refGraph[u])
		}
		if pairs := topPairs(m.uc, 20, 2); !slices.Equal(pairs, refPairs) || len(pairs) == 0 {
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

	wl, wr, wu := NewLinearScan(written), NewRoIIndex(written, BuildSTR, 16), NewUserCentricIndex(written, BuildSTR, 16)
	for qi, q := range append(queries, written.Row(3), written.Row(written.Len()-1)) {
		for _, k := range []int{1, 5, 50} {
			want := rowScan(written, q, k)
			prefix := "written/q" + string(rune('0'+qi)) + "/"
			exactRanking(t, prefix+"linear", wl.TopK(q, k), want)
			exactRanking(t, prefix+"iterative", wr.TopKIterative(q, k), want)
			exactRanking(t, prefix+"batch", wr.TopKBatch(q, k), want)
			exactRanking(t, prefix+"uc", wu.TopK(q, k), want)
			exactRanking(t, prefix+"sketch", wu.TopKSketch(q, k), want)
		}
	}
}

// writeSeeded puts db through n seeded writes: Upserts of new and of
// existing users, AppendRoIs and Removes.
func writeSeeded(db *store.FootprintDB, rng *rand.Rand, n int) {
	fresh := clusteredFootprints(rng, n, 12)
	for i, f := range fresh {
		id := db.IDs[rng.Intn(db.Len())]
		switch i % 4 {
		case 0:
			db.Upsert(100000+i, f)
		case 1:
			db.Upsert(id, f)
		case 2:
			db.AppendRoIs(id, f)
		case 3:
			db.Remove(id)
		}
	}
}

// rowScan is the oracle for a written database: SimilarityJoin over
// every stored Row, best k kept.
func rowScan(db *store.FootprintDB, q core.Footprint, k int) []Result {
	col := topk.New(k)
	qn := core.Norm(q)
	for u := range db.IDs {
		if sim := core.SimilarityJoin(db.Row(u), q, db.Norms[u], qn); sim > 0 {
			col.Offer(db.IDs[u], sim)
		}
	}
	return col.Results()
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
