package store

import (
	"math"
	"path/filepath"
	"testing"

	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/sketch"
)

// The fixtures are one database — 41 users at G = 16 with non-integer
// weights, a duplicated region, one tombstone and one user escaping the
// sketch domain — written by the last release whose sketches had a
// float64 mass and no peak: once as a version-1 columnar file, once as
// gob.
var v1Fixtures = []string{"testdata/v1-sketch.col", "testdata/v1-sketch.gob"}

// sameSketchBits fails unless got is, column by column and bit for bit,
// the sketch Build makes of f under p.
func sameSketchBits(t *testing.T, when string, got *sketch.Sketch, f core.Footprint, p sketch.Params) {
	t.Helper()
	want := sketch.Build(f, p)
	if got.Len() != want.Len() || len(got.Mass) != want.Len() || len(got.Peak) != want.Len() || len(got.Root) != want.Len() {
		t.Fatalf("%s: %d/%d/%d/%d cells, Build makes %d", when, got.Len(), len(got.Mass), len(got.Peak), len(got.Root), want.Len())
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] || math.Float32bits(got.Mass[i]) != math.Float32bits(want.Mass[i]) ||
			math.Float32bits(got.Peak[i]) != math.Float32bits(want.Peak[i]) || math.Float64bits(got.Root[i]) != math.Float64bits(want.Root[i]) {
			t.Fatalf("%s: cell %d is (%d, %v, %v, %v), Build makes (%d, %v, %v, %v)", when, i,
				got.Cells[i], got.Mass[i], got.Peak[i], got.Root[i], want.Cells[i], want.Mass[i], want.Peak[i], want.Root[i])
		}
	}
}

// TestVersion1FixturesOpenBitIdentical: a version-1 columnar file and a
// gob file from before the peak column open with every sketch equal,
// bit for bit, to what Build makes of the stored footprint today — the
// masses rounded up on load, the peaks derived from the regions — so
// every bound, through the reference kernel and through the gather,
// has the bits a freshly built layer gives. Saving the database
// (geomigrate convert) writes a version-2 file that reads back the
// same.
func TestVersion1FixturesOpenBitIdentical(t *testing.T) {
	var loaded []*FootprintDB
	for _, path := range v1Fixtures {
		db, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !db.SketchesEnabled() || db.Len() != 41 || db.SketchParams.G != 16 {
			t.Fatalf("%s: %d users, sketches %v at G=%d", path, db.Len(), db.SketchesEnabled(), db.SketchParams.G)
		}
		fresh := &FootprintDB{Footprints: db.Footprints, SketchParams: db.SketchParams}
		for u := range db.IDs {
			sameSketchBits(t, path, &db.Sketches[u], db.Footprints[u], db.SketchParams)
			fresh.Sketches = append(fresh.Sketches, sketch.Build(db.Footprints[u], db.SketchParams))
		}
		for qi, q := range []core.Footprint{db.Footprints[0], db.Footprints[17], db.Footprints[40]} {
			qsk := sketch.Build(q, db.SketchParams)
			raster := sketch.Rasterize(&qsk, db.SketchParams.G)
			for u := range db.IDs {
				want := math.Float64bits(sketch.BoundDot(&fresh.Sketches[u], &qsk))
				if ref, dense := db.UserSketchDot(u, &qsk), db.UserSketchDotDense(u, raster.Table()); math.Float64bits(ref) != want || math.Float64bits(dense) != want {
					t.Fatalf("%s query %d user %d: reference %v, gather %v, a fresh layer %v", path, qi, u, ref, dense, math.Float64frombits(want))
				}
			}
			raster.Release()
		}
		loaded = append(loaded, db)
	}
	sameDB(t, loaded[0], loaded[1])

	upgraded := filepath.Join(t.TempDir(), "v2.col")
	if err := loaded[0].Save(upgraded); err != nil {
		t.Fatal(err)
	}
	snap, err := colstore.Open(upgraded, colstore.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != colstore.Version || snap.CellPeak == nil {
		t.Fatalf("the rewrite is version %d with peaks %v", snap.Version, snap.CellPeak != nil)
	}
	reread, err := FromColumnar(snap)
	if err != nil {
		t.Fatal(err)
	}
	sameDB(t, loaded[0], reread)
}
