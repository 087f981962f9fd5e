package engine

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
	"geofootprint/internal/store/storetest"
)

// clusteredFootprints mirrors the generator of the search tests:
// footprints drawn around shared hotspots so users genuinely overlap.
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
		ids[i] = i*3 + 1 // non-dense external IDs
	}
	db, err := store.FromFootprints("engine-test", ids, fps)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	return db
}

// sources lists every candidate source over db, leaving the sketch
// layer as the caller set it. The grid source is not safe for
// concurrent use, so tests that query one engine from several
// goroutines skip it.
func sources(t *testing.T, db *store.FootprintDB) map[string]search.Source {
	t.Helper()
	roi := search.NewRoIIndex(db, search.BuildSTR, 0)
	gix, err := search.NewGridIndex(db, geom.Rect{MaxX: 1, MaxY: 1}, 32)
	if err != nil {
		t.Fatalf("NewGridIndex: %v", err)
	}
	return map[string]search.Source{
		"all-users":    search.AllUsers(db),
		"iterative":    roi.Iterative(),
		"batch":        roi.Batch(),
		"user-centric": search.NewUserCentricIndex(db, search.BuildSTR, 0),
		"grid":         gix,
	}
}

// methods is sources over db with the sketch layer enabled.
func methods(t *testing.T, db *store.FootprintDB) map[string]search.Source {
	t.Helper()
	if !db.SketchesEnabled() {
		db.EnableSketches(0, 0)
	}
	return sources(t, db)
}

// restrictedOracle is the answer a restricted query must give:
// LinearScan's full ranking with the users outside the restriction
// removed, cut to k.
func restrictedOracle(db *store.FootprintDB, q core.Footprint, k int, in *search.Restrict) []search.Result {
	if in == nil {
		return search.NewLinearScan(db).TopK(q, k)
	}
	dense := make(map[int]int, db.Len())
	for u, id := range db.IDs {
		dense[id] = u
	}
	kept := []search.Result{} // what an empty collector returns
	for _, r := range search.NewLinearScan(db).TopK(q, db.Len()+1) {
		if s := in.SegOf[dense[r.ID]]; s >= in.Lo && s < in.Hi && len(kept) < k {
			kept = append(kept, r)
		}
	}
	return kept
}

// TestParallelTopKByteIdentical is the determinism contract of the one
// top-k loop: every source, with the sketch layer off, on, and on with
// its cell-major transpose ready from the first query, over the whole
// corpus and over a prefix-style restriction, for k from 1 to more than
// there are candidates, on 1, 2 and 8 workers, returns LinearScan's
// bytes. The plain "sketch" rows start on a database too young to have
// a transpose and cross its build line part-way through, so they cover
// the gather, the query that builds inline, and the walk after it. The
// "derived" rows run on an epoch that shares its base's R-tree and
// transpose, built by a later epoch of the base, and reads its own rows
// for the users either epoch wrote since the base. The
// seeded rows (k ∈ {1, 5, 300}) hold the seed to its contract: a rerun
// does the same work, the k seed joins are among the joins counted, and
// the work is the same on every worker count — a query never fans out.
func TestParallelTopKByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	for _, layer := range []string{"sketch", "sketch+postings", "none", "derived"} {
		sketches := layer != "none"
		db := testDB(t, rng, 400)
		if sketches {
			db.EnableSketches(0, 0)
		}
		if layer == "sketch+postings" && db.SketchPostings(1<<40) == nil {
			t.Fatal("no transpose after a paid-up gather")
		}
		if layer == "derived" {
			db = storetest.DerivedEpoch(t, rng, db, func(n int) []core.Footprint { return clusteredFootprints(rng, n, 12) })
		}
		segOf := make([]uint16, db.Len())
		for u := range segOf {
			segOf[u] = uint16(rng.Intn(12))
		}
		restrictions := []*search.Restrict{nil, {Partition: "test", SegOf: segOf, Lo: 3, Hi: 8}}
		srcs := sources(t, db)
		if layer == "derived" {
			srcs["user-centric-shared"] = NewView(db, 0).Index()
		}
		queries := make([]core.Footprint, 6)
		for i := range queries {
			if i%2 == 0 {
				queries[i] = db.Row(rng.Intn(db.Len()))
			} else {
				queries[i] = clusteredFootprints(rng, 1, 12)[0]
			}
		}
		for _, q := range queries {
			for _, k := range []int{1, 5, 50, 300, db.Len() + 10} {
				seeded := k == 1 || k == 5 || k == 300
				for _, in := range restrictions {
					want := restrictedOracle(db, q, k, in)
					for name, src := range srcs {
						var serial search.SketchStats
						for _, workers := range []int{1, 2, 8} {
							e := New(db, src, workers)
							got, err := e.TopKInCtx(ctx, q, k, in)
							if err != nil || !reflect.DeepEqual(got, want) {
								t.Fatalf("%s layer=%s restricted=%v k=%d workers=%d: diverged from LinearScan (err=%v)\ngot:  %v\nwant: %v",
									name, layer, in != nil, k, workers, err, got, want)
							}
							if !seeded {
								continue
							}
							var first, again search.SketchStats
							a, errA := e.query(ctx, q, search.AdHoc, k, in, &first)
							b, errB := e.query(ctx, q, search.AdHoc, k, in, &again)
							if errA != nil || errB != nil || !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
								t.Fatalf("%s layer=%s restricted=%v k=%d workers=%d: seeded run diverged (errs %v, %v)", name, layer, in != nil, k, workers, errA, errB)
							}
							if first != again || first.Refined < min(k, first.Scored) || first.Refined > first.Scored {
								t.Fatalf("%s layer=%s restricted=%v k=%d workers=%d: work %v, then %v", name, layer, in != nil, k, workers, first, again)
							}
							if workers == 1 {
								serial = first
							} else if first != serial {
								t.Fatalf("%s layer=%s restricted=%v k=%d: work %v on %d workers, %v on one", name, layer, in != nil, k, first, workers, serial)
							}
						}
					}
				}
			}
		}
		if db.SketchesEnabled() != sketches {
			t.Fatalf("the sketch layer changed under the test: enabled=%v, want %v", db.SketchesEnabled(), sketches)
		}
		if sketches && db.SketchPostings(0) == nil {
			t.Fatalf("layer=%s: the queries above never took the database across its build line", layer)
		}
	}

	// The stored-row row: every user of the four part presets, queried
	// by its row — the loop then reads the user's norm and sketch from
	// the database instead of computing them — gets the bits of the same
	// query by footprint. On an in-memory and a version-2 database the
	// stored sketch is the one a build makes, so the work is the same
	// too; a version-1 database only has to answer the same. Under the
	// race detector every seventh user stands in for all of them.
	stride := 1
	if raceEnabled {
		stride = 7
	}
	dir := t.TempDir()
	v1, err := store.Load("../store/testdata/v1-sketch.col")
	if err != nil {
		t.Fatal(err)
	}
	dbs := map[string]*store.FootprintDB{"v1 fixture": v1}
	for _, part := range []string{"A", "B", "C", "D"} {
		mem := partDB(t, part, 0.002)
		mem.EnableSketches(0, 0)
		path := filepath.Join(dir, part+".col")
		if err := mem.Save(path); err != nil {
			t.Fatal(err)
		}
		v2, err := store.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		dbs[part+" in memory"], dbs[part+" v2"] = mem, v2
	}
	for name, db := range dbs {
		sameWork := name != "v1 fixture"
		src := search.NewUserCentricIndex(db, search.BuildSTR, 0)
		for u := 0; u < db.Len(); u += stride {
			for _, k := range []int{1, 5, 50} {
				var byRow, byFootprint search.SketchStats
				got, errR := search.TopK(ctx, db, src, db.Footprints[u], u, k, nil, &byRow)
				want, errF := search.TopK(ctx, db, src, db.Footprints[u], search.AdHoc, k, nil, &byFootprint)
				if errR != nil || errF != nil || !sameBits(got, want) {
					t.Fatalf("%s user %d k=%d: by row %v (err %v), by footprint %v (err %v)", name, u, k, got, errR, want, errF)
				}
				if sameWork && byRow != byFootprint {
					t.Fatalf("%s user %d k=%d: work by row %v, by footprint %v", name, u, k, byRow, byFootprint)
				}
			}
		}
	}
}

// sameBits reports whether two rankings hold the same IDs and the same
// score bits, in the same order.
func sameBits(a, b []search.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestBatchByteIdentical asserts that the batched worker-pool path
// returns, per query, LinearScan's bytes for every source.
func TestBatchByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := testDB(t, rng, 250)
	queries := make([]core.Footprint, 40)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = db.Footprints[rng.Intn(db.Len())]
		} else {
			queries[i] = clusteredFootprints(rng, 1, 12)[0]
		}
	}
	const k = 5
	lin := search.NewLinearScan(db)
	for name, src := range methods(t, db) {
		if name == "grid" {
			continue // the batch queries it from four goroutines
		}
		got := New(db, src, 4).TopKBatch(queries, k)
		if len(got) != len(queries) {
			t.Fatalf("%s: %d result sets for %d queries", name, len(got), len(queries))
		}
		for i, q := range queries {
			want := lin.TopK(q, k)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s: batch result %d diverged\ngot:  %v\nwant: %v", name, i, got[i], want)
			}
		}
	}
}

// TestRepeatedParallelRunsAgree re-runs the same query on an engine
// with an eight-wide pool many times: nothing must change the answer.
func TestRepeatedParallelRunsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	db := testDB(t, rng, 300)
	e := New(db, search.NewUserCentricIndex(db, search.BuildSTR, 0), 8)
	q := db.Footprints[17]
	want := e.TopK(q, 7)
	for i := 0; i < 50; i++ {
		if got := e.TopK(q, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged\ngot:  %v\nwant: %v", i, got, want)
		}
	}
}

// TestConcurrentQueries drives the engine from many goroutines at
// once — the server's concurrent read pattern — under the race
// detector in `make check`.
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	db := testDB(t, rng, 200)
	e := New(db, search.NewUserCentricIndex(db, search.BuildSTR, 0), 4)
	queries := make([]core.Footprint, 16)
	wants := make([][]search.Result, len(queries))
	for i := range queries {
		queries[i] = db.Footprints[rng.Intn(db.Len())]
		wants[i] = e.TopK(queries[i], 5)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				qi := (i + g) % len(queries)
				if got := e.TopK(queries[qi], 5); !reflect.DeepEqual(got, wants[qi]) {
					t.Errorf("goroutine %d query %d diverged", g, qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := testDB(t, rng, 30)
	e := New(db, search.NewUserCentricIndex(db, search.BuildSTR, 0), 4)
	if got := e.TopK(nil, 5); got != nil {
		t.Errorf("empty query returned %v", got)
	}
	if got := e.TopK(db.Footprints[0], 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	degenerate := core.Footprint{{Rect: geom.Rect{MinX: 1, MinY: 1, MaxX: 1, MaxY: 1}, Weight: 1}}
	if got := e.TopK(degenerate, 5); got != nil {
		t.Errorf("zero-norm query returned %v", got)
	}
	if got := e.TopKBatch(nil, 5); len(got) != 0 {
		t.Errorf("empty batch returned %v", got)
	}

	empty, err := store.FromFootprints("empty", nil, nil)
	if err != nil {
		t.Fatalf("FromFootprints: %v", err)
	}
	ee := New(empty, search.NewUserCentricIndex(empty, search.BuildSTR, 0), 4)
	if got := ee.TopK(db.Footprints[0], 5); len(got) != 0 {
		t.Errorf("empty db returned %v", got)
	}
}
