package store

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

// scaledSnapshot saves a database of `users` users holding `regions`
// regions each, sketch layer included. The users' IDs do not depend on
// the region count.
func scaledSnapshot(t *testing.T, users, regions int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(regions)))
	ids := make([]int, users)
	fps := make([]core.Footprint, users)
	for u := range fps {
		ids[u] = 10*u + 1
		f := make(core.Footprint, regions)
		for i := range f {
			x, y := rng.Float64(), rng.Float64()
			f[i] = core.Region{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}, Weight: 1}
		}
		fps[u] = f
	}
	db, err := FromFootprints("scaled", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	db.EnableSketches(16, 0)
	path := filepath.Join(t.TempDir(), "scaled.col")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// allocated returns the heap bytes one call of open allocates, the
// least of a few runs (a GC between them, so the runs are comparable).
func allocated(t *testing.T, path string, open func(string) (*FootprintDB, error)) (uint64, *FootprintDB) {
	t.Helper()
	var best uint64
	var db *FootprintDB
	var ms runtime.MemStats
	for run := 0; run < 3; run++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		got, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if d := ms.TotalAlloc - before; run == 0 || d < best {
			best = d
		}
		db = got
	}
	return best, db
}

// Open keeps one copy of the regions — the mapped columns — so what it
// allocates depends on the user count alone: four times the regions
// per user cost the same heap. Load still transposes every region onto
// the heap (a core.Region is 40 bytes).
func TestOpenHeapIndependentOfRegions(t *testing.T) {
	const users = 3000
	small, large := scaledSnapshot(t, users, 4), scaledSnapshot(t, users, 16)
	if snap, err := colstore.Open(small, colstore.ModeMmap); err != nil {
		t.Skipf("mmap unavailable on this platform: %v", err)
	} else {
		snap.Close()
	}
	openSmall, dbSmall := allocated(t, small, Open)
	openLarge, dbLarge := allocated(t, large, Open)
	if dbSmall.NumRegions() != 4*users || dbLarge.NumRegions() != 16*users {
		t.Fatalf("opened %d and %d regions", dbSmall.NumRegions(), dbLarge.NumRegions())
	}
	if dbLarge.Backing() != "columns" {
		t.Fatalf("an opened database reports backing %q", dbLarge.Backing())
	}
	// 12 extra regions a user would be 480 B a user on the heap; the
	// slack is 1/40 of that.
	const slack = 12 * users
	if diff := int64(openLarge) - int64(openSmall); diff > slack || diff < -slack {
		t.Fatalf("Open allocates %d B for %d regions and %d B for %d: the heap grows with the regions",
			openSmall, 4*users, openLarge, 16*users)
	}
	loadLarge, dbLoaded := allocated(t, large, Load)
	if loadLarge < 40*uint64(dbLoaded.NumRegions()) {
		t.Fatalf("Load allocates %d B for %d regions, want at least 40 B a region", loadLarge, dbLoaded.NumRegions())
	}
	if dbLoaded.Backing() != "materialised" {
		t.Fatalf("a loaded database reports backing %q", dbLoaded.Backing())
	}
	t.Logf("Open: %d B (%d regions), %d B (%d regions); Load: %d B", openSmall, 4*users, openLarge, 16*users, loadLarge)
}

// The first write to an opened database builds its AoS footprints —
// once, in detachCols — from the columns, and leaves every other row
// exactly as the columns held it.
func TestOpenMaterialisesAtFirstWrite(t *testing.T) {
	src := columnarTestDB(t, 60, true)
	path := filepath.Join(t.TempDir(), "db.col")
	if err := src.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, write := range []struct {
		name string
		fn   func(b *EpochBuilder)
	}{
		{"upsert", func(b *EpochBuilder) { b.Upsert(2, core.Footprint{{Rect: geom.Rect{MaxX: 0.1, MaxY: 0.1}, Weight: 1}}) }},
		{"append", func(b *EpochBuilder) {
			b.AppendRoIs(src.IDs[3], []core.Region{{Rect: geom.Rect{MaxX: 0.2, MaxY: 0.1}, Weight: 2}})
		}},
		{"remove", func(b *EpochBuilder) { b.Remove(src.IDs[5]) }},
	} {
		db, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if db.Footprints != nil || db.Backing() != "columns" {
			t.Fatalf("%s: Open built footprints", write.name)
		}
		sameDB(t, src, db)
		b := NewEpochBuilder(db)
		before := b.Freeze()
		write.fn(b)
		if db.Footprints == nil || db.ColumnarBacked() || db.Backing() != "materialised" {
			t.Fatalf("%s: the write left backing %q", write.name, db.Backing())
		}
		// The epoch frozen before the write still serves the columns.
		if before.Backing() != "columns" {
			t.Fatalf("%s: the earlier epoch reports backing %q", write.name, before.Backing())
		}
		sameDB(t, src, before)
		for u := range src.IDs {
			if u == 3 || u == 5 {
				continue
			}
			if !slices.Equal(db.Row(u), src.Row(u)) {
				t.Fatalf("%s: row %d changed", write.name, u)
			}
		}
	}
}
