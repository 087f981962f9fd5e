package store

import (
	"math/rand"
	"path/filepath"
	"runtime"
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

// allocated returns the heap bytes one call of fn allocates, the least
// of allocRuns runs (a GC before each, so the runs are comparable, and
// the least, so a background allocation in one run does not count); fn
// gets the run's number.
const allocRuns = 5

func allocated(fn func(run int)) uint64 {
	var best uint64
	var ms runtime.MemStats
	for run := 0; run < allocRuns; run++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fn(run)
		runtime.ReadMemStats(&ms)
		if d := ms.TotalAlloc - before; run == 0 || d < best {
			best = d
		}
	}
	return best
}

// opened returns the heap bytes one call of open allocates, and the
// database it opened.
func opened(t *testing.T, path string, open func(string) (*FootprintDB, error)) (uint64, *FootprintDB) {
	t.Helper()
	var db *FootprintDB
	heap := allocated(func(int) {
		var err error
		if db, err = open(path); err != nil {
			t.Fatal(err)
		}
	})
	return heap, db
}

// skipWithoutMmap skips a heap test where the zero-copy load is not
// available: the read fallback puts the columns on the heap.
func skipWithoutMmap(t *testing.T, path string) {
	t.Helper()
	snap, err := colstore.Open(path, colstore.ModeMmap)
	if err != nil {
		t.Skipf("mmap unavailable on this platform: %v", err)
	}
	snap.Close()
}

// Open keeps one copy of the regions — the mapped columns — so what it
// allocates depends on the user count alone: four times the regions
// per user cost the same heap. Load still transposes every region onto
// the heap (a core.Region is 40 bytes).
func TestOpenHeapIndependentOfRegions(t *testing.T) {
	const users = 3000
	small, large := scaledSnapshot(t, users, 4), scaledSnapshot(t, users, 16)
	skipWithoutMmap(t, small)
	openSmall, dbSmall := opened(t, small, Open)
	openLarge, dbLarge := opened(t, large, Open)
	if dbSmall.NumRegions() != 4*users || dbLarge.NumRegions() != 16*users {
		t.Fatalf("opened %d and %d regions", dbSmall.NumRegions(), dbLarge.NumRegions())
	}
	if dbLarge.Footprints != nil || !dbLarge.mapped {
		t.Fatal("Open built footprints or left the mapped columns")
	}
	// 12 extra regions a user would be 480 B a user on the heap; the
	// slack is 1/40 of that.
	const slack = 12 * users
	if diff := int64(openLarge) - int64(openSmall); diff > slack || diff < -slack {
		t.Fatalf("Open allocates %d B for %d regions and %d B for %d: the heap grows with the regions",
			openSmall, 4*users, openLarge, 16*users)
	}
	loadLarge, dbLoaded := opened(t, large, Load)
	if loadLarge < 40*uint64(dbLoaded.NumRegions()) {
		t.Fatalf("Load allocates %d B for %d regions, want at least 40 B a region", loadLarge, dbLoaded.NumRegions())
	}
	t.Logf("Open: %d B (%d regions), %d B (%d regions); Load: %d B", openSmall, 4*users, openLarge, 16*users, loadLarge)
}

// The first write to an opened database copies the one chunk that holds
// its row, not the regions: the first AppendRoIs allocates the same for
// 4 and 16 regions a user apart from that chunk's 12 extra regions a
// user (40 B each), and every other chunk still aliases the mapping.
func TestFirstWriteCopiesOneChunk(t *testing.T) {
	const users, user = 3000, 1000
	small, large := scaledSnapshot(t, users, 4), scaledSnapshot(t, users, 16)
	skipWithoutMmap(t, small)
	add := []core.Region{{Rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.52, MaxY: 0.51}, Weight: 2}}
	firstWrite := func(path string) uint64 {
		var dbs [allocRuns]*FootprintDB
		for i := range dbs {
			var err error
			if dbs[i], err = Open(path); err != nil {
				t.Fatal(err)
			}
			dbs[i].IndexOf(0) // the ID map is O(users), the same at both sizes
		}
		heap := allocated(func(run int) { dbs[run].AppendRoIs(dbs[run].IDs[user], add) })
		for _, db := range dbs {
			if db.mapped || db.RowLen(user) != db.NumRegions()/users+1 {
				t.Fatalf("the write left mapped=%v and %d regions in the row", db.mapped, db.RowLen(user))
			}
			for ci, c := range db.chunks {
				if aliases := &c.regions.MinX[0] == &db.colSrc.MinX[0]; aliases != (ci != user/chunkUsers) {
					t.Fatalf("chunk %d aliases the mapping: %v", ci, aliases)
				}
			}
		}
		return heap
	}
	writeSmall, writeLarge := firstWrite(small), firstWrite(large)
	// The slack covers allocator size classes, the written row's own
	// copy, and the scratch its norm and sketch draw from pools the GC
	// before each run may have emptied. Copying every region, 1.4 MB,
	// is far past it; the aliasing check above pins the one chunk.
	chunk := int64(40 * chunkUsers * (16 - 4))
	const slack = 12 << 10
	if diff := int64(writeLarge) - int64(writeSmall) - chunk; diff > slack || diff < -slack {
		t.Fatalf("the first write allocates %d B at 4 regions a user and %d B at 16: %d B beyond the chunk's %d",
			writeSmall, writeLarge, diff, chunk)
	}
	t.Logf("first AppendRoIs: %d B (4 regions a user), %d B (16 regions a user)", writeSmall, writeLarge)
}
