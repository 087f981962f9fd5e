package engine

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
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

// methods lists every search path with its serial oracle.
func methods(db *store.FootprintDB) map[string]struct {
	m      Method
	serial func(q core.Footprint, k int) []search.Result
} {
	lin := search.NewLinearScan(db)
	roi := search.NewRoIIndex(db, search.BuildSTR, 0)
	uc := search.NewUserCentricIndex(db, search.BuildSTR, 0)
	if !db.SketchesEnabled() {
		db.EnableSketches(0, 0)
	}
	return map[string]struct {
		m      Method
		serial func(q core.Footprint, k int) []search.Result
	}{
		"linear":       {MethodLinear, lin.TopK},
		"iterative":    {MethodIterative, roi.TopKIterative},
		"batch":        {MethodBatch, roi.TopKBatch},
		"user-centric": {MethodUserCentric, uc.TopK},
		"sketch":       {MethodSketch, uc.TopKSketch},
	}
}

// restrictedOracle is the answer a restricted query must give:
// LinearScan's full ranking with the users outside the restriction
// removed, cut to k.
func restrictedOracle(db *store.FootprintDB, q core.Footprint, k int, in *Restrict) []search.Result {
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
// query path: every method, with the sketch layer on and off, over the
// whole corpus and over a prefix-style restriction, for k from 1 to
// more than there are candidates, on 1, 2 and 8 workers, returns
// LinearScan's bytes.
func TestParallelTopKByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	for _, sketches := range []bool{true, false} {
		db := testDB(t, rng, 400)
		if sketches {
			db.EnableSketches(0, 0)
		}
		segOf := make([]uint16, db.Len())
		for u := range segOf {
			segOf[u] = uint16(rng.Intn(12))
		}
		restrictions := []*Restrict{nil, {Partition: "test", SegOf: segOf, Lo: 3, Hi: 8}}
		roi := search.NewRoIIndex(db, search.BuildSTR, 0)
		uc := search.NewUserCentricIndex(db, search.BuildSTR, 0)
		methods := map[string]Method{
			"linear": MethodLinear, "iterative": MethodIterative, "batch": MethodBatch,
			"user-centric": MethodUserCentric, "sketch": MethodSketch,
		}
		if !sketches {
			// New(MethodSketch) would enable the layer on the shared db.
			delete(methods, "sketch")
		}
		queries := make([]core.Footprint, 6)
		for i := range queries {
			if i%2 == 0 {
				queries[i] = db.Footprints[rng.Intn(db.Len())]
			} else {
				queries[i] = clusteredFootprints(rng, 1, 12)[0]
			}
		}
		for _, q := range queries {
			for _, k := range []int{1, 5, 50, db.Len() + 10} {
				for _, in := range restrictions {
					want := restrictedOracle(db, q, k, in)
					for name, m := range methods {
						for _, workers := range []int{1, 2, 8} {
							e := New(db, Options{Workers: workers, Method: m, UserCentric: uc, RoI: roi})
							got, err := e.TopKInCtx(ctx, q, k, in)
							if err != nil || !reflect.DeepEqual(got, want) {
								t.Fatalf("%s sketches=%v restricted=%v k=%d workers=%d: diverged from LinearScan (err=%v)\ngot:  %v\nwant: %v",
									name, sketches, in != nil, k, workers, err, got, want)
							}
						}
					}
				}
			}
		}
		if db.SketchesEnabled() != sketches {
			t.Fatalf("the sketch layer changed under the test: enabled=%v, want %v", db.SketchesEnabled(), sketches)
		}
	}
}

// TestBatchByteIdentical asserts that the batched worker-pool path
// returns, per query, byte-identical results to serial execution for
// all four methods.
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
	for name, mm := range methods(db) {
		e := New(db, Options{Workers: 4, Method: mm.m})
		got := e.TopKBatch(queries, k)
		if len(got) != len(queries) {
			t.Fatalf("%s: %d result sets for %d queries", name, len(got), len(queries))
		}
		for i, q := range queries {
			want := mm.serial(q, k)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s: batch result %d diverged\ngot:  %v\nwant: %v", name, i, got[i], want)
			}
		}
	}
}

// TestRepeatedParallelRunsAgree re-runs the same parallel query many
// times: scheduling must never change the answer.
func TestRepeatedParallelRunsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	db := testDB(t, rng, 300)
	e := New(db, Options{Workers: 8, Method: MethodUserCentric})
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
	e := New(db, Options{Workers: 4})
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

func TestPrecomputeNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	db := testDB(t, rng, 120)
	wantNorms := append([]float64(nil), db.Norms...)
	wantMBRs := append([]geom.Rect(nil), db.MBRs...)
	// Scribble over the precomputed state, then recompute in parallel.
	for i := range db.Norms {
		db.Norms[i] = -1
		db.MBRs[i] = geom.Rect{}
	}
	e := New(db, Options{Workers: 4, Method: MethodLinear})
	e.PrecomputeNorms()
	for i := range wantNorms {
		if db.Norms[i] != wantNorms[i] {
			t.Fatalf("norm %d = %v, want %v", i, db.Norms[i], wantNorms[i])
		}
		if db.MBRs[i] != wantMBRs[i] {
			t.Fatalf("MBR %d = %v, want %v", i, db.MBRs[i], wantMBRs[i])
		}
	}
}

func TestEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := testDB(t, rng, 30)
	e := New(db, Options{Workers: 4})
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
	ee := New(empty, Options{Workers: 4})
	if got := ee.TopK(db.Footprints[0], 5); len(got) != 0 {
		t.Errorf("empty db returned %v", got)
	}
	ee.PrecomputeNorms() // must not panic
}

func TestShardWorkersBounds(t *testing.T) {
	e := New(&store.FootprintDB{}, Options{Workers: 8, Method: MethodLinear})
	if w := e.shardWorkers(10); w > 1 {
		t.Errorf("shardWorkers(10) = %d, want <= 1 (below minShard)", w)
	}
	if w := e.shardWorkers(8 * minShard * 10); w != 8 {
		t.Errorf("shardWorkers(big) = %d, want pool cap 8", w)
	}
}
