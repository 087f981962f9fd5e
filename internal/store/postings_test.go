package store_test

// External test package: these tests drive the transpose memo through
// search.SketchBound and search.TopK, which import store.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/sketch"
	"geofootprint/internal/store"
)

func postingsFootprint(rng *rand.Rand) core.Footprint {
	f := make(core.Footprint, 1+rng.Intn(5))
	for i := range f {
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		f[i] = core.Region{
			Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.02 + rng.Float64()*0.1, MaxY: y + 0.02 + rng.Float64()*0.1},
			Weight: float64(1 + rng.Intn(3)),
		}
	}
	core.SortByMinX(f)
	return f
}

func postingsDB(t *testing.T, rng *rand.Rand, users, firstID int) *store.FootprintDB {
	t.Helper()
	ids := make([]int, users)
	fps := make([]core.Footprint, users)
	for u := range ids {
		ids[u] = firstID + u
		fps[u] = postingsFootprint(rng)
	}
	db, err := store.FromFootprints("postings", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// paid is a gather charge that takes any database across the build
// line in one call.
const paid = 1 << 40

// checkBounds bounds q against every user through search.SketchBound —
// which walks the transpose when the database has one — and compares
// with the gather kernel computed here, bit for bit.
func checkBounds(t *testing.T, when string, db *store.FootprintDB, q core.Footprint) {
	t.Helper()
	qnorm := core.Norm(q)
	qsk := sketch.Build(q, db.SketchParams)
	raster := sketch.Rasterize(&qsk, db.SketchParams.G)
	defer raster.Release()
	var want []search.SketchCandidate
	cands := make([]int, db.Len())
	for u := range cands {
		cands[u] = u
		if b := sketch.UpperBound(sketch.DotDense(db.Sketch(u), raster.Table()), db.Norm(u), qnorm); b > 0 {
			want = append(want, search.SketchCandidate{User: u, Bound: b})
		}
	}
	got, err := search.SketchBound(context.Background(), db, cands, q, search.AdHoc, qnorm, nil)
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d non-zero bounds, the gather has %d", when, len(got), len(want))
	}
	for i := range want {
		if got[i].User != want[i].User || math.Float64bits(got[i].Bound) != math.Float64bits(want[i].Bound) {
			t.Fatalf("%s: bound %d is %+v, the gather has %+v", when, i, got[i], want[i])
		}
	}
}

// TestPostingsDroppedByEveryMutation: a plain database that has been
// transposed and is then mutated in place must forget the transpose —
// it describes rows, a user count or a resolution that no longer exist —
// and bound correctly before and after building a new one. (Found the
// hard way: re-enabling the layer at another G under stale postings
// indexes past the starts array.)
func TestPostingsDroppedByEveryMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	db := postingsDB(t, rng, 120, 1000)
	db.EnableSketches(16, 0)
	queries := []core.Footprint{postingsFootprint(rng), db.Footprints[7], postingsFootprint(rng)}

	region := core.Region{Rect: geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.55, MaxY: 0.5}, Weight: 2}
	steps := []struct {
		name   string
		mutate func()
	}{
		{"EnableSketches(64)", func() { db.EnableSketches(64, 0) }},
		{"Upsert new user", func() { db.Upsert(5000, postingsFootprint(rng)) }},
		{"Upsert existing user", func() { db.Upsert(1003, postingsFootprint(rng)) }},
		{"AppendRoIs", func() { db.AppendRoIs(1010, []core.Region{region}) }},
		{"AppendRoIs new user", func() { db.AppendRoIs(5001, []core.Region{region}) }},
		{"Remove", func() { db.Remove(1020) }},
		{"EnableSketches(16)", func() { db.EnableSketches(16, 0) }},
	}
	for _, step := range steps {
		if db.SketchPostings(paid) == nil {
			t.Fatalf("before %s: no transpose after a paid-up gather", step.name)
		}
		for _, q := range queries {
			checkBounds(t, "transposed, before "+step.name, db, q)
		}
		step.mutate()
		if db.SketchPostings(0) != nil {
			t.Fatalf("%s kept the transpose of the database it mutated", step.name)
		}
		for _, q := range queries {
			checkBounds(t, "after "+step.name, db, q)
		}
	}
	db.SketchPostings(paid)
	db.DisableSketches()
	if db.SketchPostings(0) != nil {
		t.Fatal("DisableSketches kept the transpose")
	}
}

// TestPostingsCopyOnWrite: an epoch starts without the builder's
// transpose, and the one it builds survives whatever the builder does
// afterwards.
func TestPostingsCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	db := postingsDB(t, rng, 100, 1)
	db.EnableSketches(32, 0)
	if db.SketchPostings(paid) == nil {
		t.Fatal("no transpose on the working database")
	}
	b := store.NewEpochBuilder(db)
	epoch := b.Freeze()
	if epoch.SketchPostings(0) != nil {
		t.Fatal("Freeze handed the builder's transpose to the epoch")
	}
	built := epoch.SketchPostings(paid)
	if built == nil {
		t.Fatal("no transpose on the epoch")
	}
	q := postingsFootprint(rng)
	checkBounds(t, "epoch", epoch, q)
	users := epoch.Len()

	b.Upsert(3, postingsFootprint(rng))
	b.Upsert(70000, postingsFootprint(rng))
	b.AppendRoIs(9, []core.Region{{Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.3, MaxY: 0.3}, Weight: 1}})
	b.Remove(11)
	b.EnableSketches(8, 0)
	next := b.Freeze()

	if epoch.SketchPostings(0) != built {
		t.Fatal("the builder's mutations replaced or dropped a published epoch's transpose")
	}
	if epoch.Len() != users || epoch.SketchParams.G != 32 {
		t.Fatalf("the epoch changed under the builder: %d users at G=%d", epoch.Len(), epoch.SketchParams.G)
	}
	checkBounds(t, "epoch after the builder moved on", epoch, q)
	if next.SketchPostings(0) != nil {
		t.Fatal("the next epoch inherited a transpose")
	}
	checkBounds(t, "next epoch, gathering", next, q)
	next.SketchPostings(paid)
	checkBounds(t, "next epoch, transposed", next, q)
}

// TestEpochPostingsBuiltOncePerEpoch races eight querying goroutines
// across the build line of live epochs while the builder keeps
// publishing: every answer is LinearScan's, and every goroutine that
// sees an epoch's transpose sees the same one.
func TestEpochPostingsBuiltOncePerEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	db := postingsDB(t, rng, 150, 1)
	db.EnableSketches(16, 0)
	b := store.NewEpochBuilder(db)
	es := store.NewEpochStore()
	publish := func() {
		frozen := b.Freeze()
		es.Publish(frozen, search.NewUserCentricIndex(frozen, search.BuildSTR, 0))
	}
	publish()

	queries := make([]core.Footprint, 16)
	for i := range queries {
		queries[i] = postingsFootprint(rng)
	}
	var (
		mu   sync.Mutex
		seen = map[uint64]*store.Transpose{}
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep := es.Acquire()
				edb, q := ep.DB(), queries[(r+i)%len(queries)]
				got, err := search.TopK(context.Background(), edb, ep.Aux().(*search.UserCentricIndex), q, search.AdHoc, 5, nil, nil)
				if want := search.NewLinearScan(edb).TopK(q, 5); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("epoch %d: %v (err %v), LinearScan %v", ep.Seq(), got, err, want)
				}
				if p := edb.SketchPostings(0); p != nil {
					mu.Lock()
					if first, ok := seen[ep.Seq()]; ok && first != p {
						t.Errorf("epoch %d was transposed twice", ep.Seq())
					}
					seen[ep.Seq()] = p
					mu.Unlock()
				}
			}
		}(r)
	}
	// The single writer publishes the next epoch once the readers have
	// taken the current one across its build line.
	transposed := func(seq uint64) bool {
		mu.Lock()
		defer mu.Unlock()
		return seen[seq] != nil
	}
	const epochs = 6
	for i := 1; i <= epochs; i++ {
		for !transposed(uint64(i)) && !t.Failed() {
			runtime.Gosched()
		}
		b.AppendRoIs(1+rng.Intn(150), []core.Region{{Rect: geom.Rect{MinX: 0.2, MinY: 0.2, MaxX: 0.35, MaxY: 0.3}, Weight: 1}})
		b.Upsert(1000+i, postingsFootprint(rng))
		publish()
	}
	close(stop)
	wg.Wait()
	if len(seen) < epochs {
		t.Fatalf("%d epochs transposed, want at least %d", len(seen), epochs)
	}
}
