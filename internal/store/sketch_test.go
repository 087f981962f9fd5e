package store

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/sketch"
)

func sketchDB(t *testing.T, seed int64, users int) *FootprintDB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fps := randFootprints(rng, users, 6)
	ids := make([]int, users)
	for i := range ids {
		ids[i] = i * 7
	}
	db, err := FromFootprints("sketchy", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	db.EnableSketches(32, 0)
	return db
}

// rebuiltSketches returns what a from-scratch EnableSketches at the
// database's *current* params would produce — the oracle incremental
// maintenance must match. The domain is pinned (not refitted) because
// mutations never move the domain.
func rebuiltSketches(db *FootprintDB) []sketch.Sketch {
	out := make([]sketch.Sketch, db.Len())
	for i := range out {
		out[i] = sketch.Build(db.Row(i), db.SketchParams)
	}
	return out
}

// sketchesOf collects every user's stored sketch, nil while the layer
// is disabled.
func sketchesOf(db *FootprintDB) []sketch.Sketch {
	if !db.SketchesEnabled() {
		return nil
	}
	out := make([]sketch.Sketch, db.Len())
	for u := range out {
		out[u] = *db.Sketch(u)
	}
	return out
}

func checkAligned(t *testing.T, db *FootprintDB, when string) {
	t.Helper()
	for ci, c := range db.chunks {
		if len(c.sketches) != c.users() {
			t.Fatalf("%s: chunk %d holds %d sketches for %d users", when, ci, len(c.sketches), c.users())
		}
	}
	want := rebuiltSketches(db)
	if !reflect.DeepEqual(normalizeSketches(sketchesOf(db)), normalizeSketches(want)) {
		t.Fatalf("%s: incrementally maintained sketches differ from a rebuild", when)
	}
}

// normalizeSketches maps empty-but-non-nil slices to nil so DeepEqual
// compares content, not make-vs-zero-value representation.
func normalizeSketches(ss []sketch.Sketch) []sketch.Sketch {
	out := make([]sketch.Sketch, len(ss))
	for i, s := range ss {
		if s.Len() > 0 {
			out[i] = s
		}
	}
	return out
}

// TestSketchMaintenance drives every mutation path and checks the
// sketch layer stays identical to a full rebuild after each step.
func TestSketchMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := sketchDB(t, 1, 12)
	checkAligned(t, db, "after enable")

	// Upsert: replace an existing user and add a new one.
	db.Upsert(0, randFootprints(rng, 1, 5)[0])
	checkAligned(t, db, "after upsert-replace")
	db.Upsert(10_000, randFootprints(rng, 1, 5)[0])
	checkAligned(t, db, "after upsert-new")

	// AppendRoIs on existing and on a fresh user.
	db.AppendRoIs(7, randFootprints(rng, 1, 3)[0])
	checkAligned(t, db, "after append-existing")
	db.AppendRoIs(20_000, randFootprints(rng, 1, 3)[0])
	checkAligned(t, db, "after append-new")

	// Remove tombstones; the sketch must empty with the footprint.
	db.Remove(14)
	checkAligned(t, db, "after remove")
	if db.Sketch(2).Len() != 0 {
		t.Fatal("tombstoned user kept a non-empty sketch")
	}
}

// TestSketchPersistence round-trips an enabled database through a file
// and checks params and sketches survive; a database without sketches
// must load as sketch-disabled.
func TestSketchPersistence(t *testing.T) {
	db := sketchDB(t, 4, 10)
	path := filepath.Join(t.TempDir(), "sketch.db")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SketchesEnabled() {
		t.Fatal("sketches lost in round-trip")
	}
	if got.SketchParams != db.SketchParams {
		t.Fatalf("params %+v, want %+v", got.SketchParams, db.SketchParams)
	}
	if !reflect.DeepEqual(normalizeSketches(sketchesOf(got)), normalizeSketches(sketchesOf(db))) {
		t.Fatal("sketches differ after round-trip")
	}

	db.DisableSketches()
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SketchesEnabled() {
		t.Fatal("disabled database loaded with sketches enabled")
	}
}

// TestSketchDomainFixedUnderUpsert: a user escaping the enable-time
// domain is clamped, and the bound property still holds against every
// stored user.
func TestSketchDomainFixedUnderUpsert(t *testing.T) {
	db := sketchDB(t, 5, 8)
	dom := db.SketchParams.Domain
	escapee := core.Footprint{
		{Rect: geom.Rect{MinX: dom.MaxX + 1, MinY: dom.MaxY + 1, MaxX: dom.MaxX + 1.3, MaxY: dom.MaxY + 1.2}, Weight: 2},
		{Rect: geom.Rect{MinX: dom.MinX - 0.5, MinY: dom.MinY, MaxX: dom.MinX + 0.1, MaxY: dom.MinY + 0.3}, Weight: 1},
	}
	core.SortByMinX(escapee)
	u := db.Upsert(777_777, escapee)
	if db.SketchParams.Domain != dom {
		t.Fatal("upsert moved the sketch domain")
	}
	for v := range db.IDs {
		sim := core.SimilarityJoin(db.Row(u), db.Row(v), db.Norm(u), db.Norm(v))
		bound := sketch.UpperBound(sketch.BoundDot(db.Sketch(u), db.Sketch(v)), db.Norm(u), db.Norm(v))
		if bound < sim {
			t.Fatalf("user %d: clamped bound %v < similarity %v", v, bound, sim)
		}
	}
}

// TestEnableSketchesClampsResolution: the resolution sizes the dense
// table the bound step allocates per query, so EnableSketches holds it
// to sketch.MaxG — the same constant the snapshot loader enforces — and
// the clamped layer still bounds correctly.
func TestEnableSketchesClampsResolution(t *testing.T) {
	db := sketchDB(t, 6, 4)
	db.EnableSketches(sketch.MaxG+500, 1)
	if !db.SketchesEnabled() || db.SketchParams.G != sketch.MaxG {
		t.Fatalf("EnableSketches(MaxG+500): enabled=%v G=%d, want G=%d", db.SketchesEnabled(), db.SketchParams.G, sketch.MaxG)
	}
	checkAligned(t, db, "after the clamped enable")
}

// TestEnableSketchesWorkerCountBitIdentical: the layer is a function of
// the footprints and the resolution, not of how many goroutines built
// it — every cell, mass, peak and root bit is the same on one worker as
// on eight.
func TestEnableSketchesWorkerCountBitIdentical(t *testing.T) {
	for _, g := range []int{0, 16, 64} {
		one, eight := sketchDB(t, 8, 300), sketchDB(t, 8, 300)
		one.EnableSketches(g, 1)
		eight.EnableSketches(g, 8)
		if one.SketchParams != eight.SketchParams {
			t.Fatalf("G=%d: params %+v on one worker, %+v on eight", g, one.SketchParams, eight.SketchParams)
		}
		for u := range one.Len() {
			a, b := one.Sketch(u), eight.Sketch(u)
			same := reflect.DeepEqual(a.Cells, b.Cells) && len(a.Mass) == len(b.Mass) &&
				len(a.Peak) == len(b.Peak) && len(a.Root) == len(b.Root)
			for i := 0; same && i < len(a.Cells); i++ {
				same = math.Float32bits(a.Mass[i]) == math.Float32bits(b.Mass[i]) &&
					math.Float32bits(a.Peak[i]) == math.Float32bits(b.Peak[i]) &&
					math.Float64bits(a.Root[i]) == math.Float64bits(b.Root[i])
			}
			if !same {
				t.Fatalf("G=%d user %d: sketch %+v on one worker, %+v on eight", g, u, *a, *b)
			}
		}
	}
}
