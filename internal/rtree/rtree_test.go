package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"geofootprint/internal/geom"
)

func randEntries(rng *rand.Rand, n int, world float64) []Entry {
	es := make([]Entry, n)
	for i := range es {
		x := rng.Float64() * world
		y := rng.Float64() * world
		es[i] = Entry{
			Rect: geom.Rect{
				MinX: x, MinY: y,
				MaxX: x + rng.Float64()*world/20,
				MaxY: y + rng.Float64()*world/20,
			},
			Data: int64(i),
		}
	}
	return es
}

// linearSearch is the oracle: scan all entries for intersection.
func linearSearch(es []Entry, q geom.Rect) []int64 {
	var out []int64
	for _, e := range es {
		if e.Rect.Intersects(q) {
			out = append(out, e.Data)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func collectSearch(t *Tree, q geom.Rect) []int64 {
	var out []int64
	t.Search(q, func(e Entry) bool {
		out = append(out, e.Data)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := New(0)
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	if !tr.root.leaf {
		t.Error("empty tree's root is not a leaf")
	}
	hits := collectSearch(tr, geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
	if len(hits) != 0 {
		t.Errorf("search on empty tree returned %v", hits)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	called := false
	tr.SearchLeaves(geom.Rect{MaxX: 1, MaxY: 1}, func(m geom.Rect, es []Entry) { called = true })
	if called {
		t.Error("SearchLeaves on empty tree should not call back")
	}
}

func TestInsertSmall(t *testing.T) {
	tr := New(4)
	rects := []geom.Rect{
		{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		{MinX: 2, MinY: 2, MaxX: 3, MaxY: 3},
		{MinX: 0.5, MinY: 0.5, MaxX: 1.5, MaxY: 1.5},
	}
	for i, r := range rects {
		tr.Insert(r, int64(i))
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
	hits := collectSearch(tr, geom.Rect{MinX: 0.6, MinY: 0.6, MaxX: 0.7, MaxY: 0.7})
	if !sameIDs(hits, []int64{0, 2}) {
		t.Errorf("hits = %v, want [0 2]", hits)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestInsertManyMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, maxEntries := range []int{4, 8, 32} {
		es := randEntries(rng, 2000, 100)
		tr := New(maxEntries)
		for _, e := range es {
			tr.Insert(e.Rect, e.Data)
		}
		if tr.Len() != len(es) {
			t.Fatalf("M=%d: Len = %d, want %d", maxEntries, tr.Len(), len(es))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("M=%d: Validate: %v", maxEntries, err)
		}
		if tr.root.leaf {
			t.Fatalf("M=%d: tree of 2000 entries should have split", maxEntries)
		}
		for trial := 0; trial < 50; trial++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			q := geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*20, MaxY: y + rng.Float64()*20}
			got := collectSearch(tr, q)
			want := linearSearch(es, q)
			if !sameIDs(got, want) {
				t.Fatalf("M=%d trial %d: got %d hits, want %d", maxEntries, trial, len(got), len(want))
			}
		}
	}
}

func TestBulkMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 31, 32, 33, 1000, 5000} {
		es := randEntries(rng, n, 100)
		tr := Bulk(es, 32)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: Validate: %v", n, err)
		}
		for trial := 0; trial < 30; trial++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			q := geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*30, MaxY: y + rng.Float64()*30}
			got := collectSearch(tr, q)
			want := linearSearch(es, q)
			if !sameIDs(got, want) {
				t.Fatalf("n=%d trial %d: got %d hits, want %d", n, trial, len(got), len(want))
			}
		}
	}
}

func TestBulkDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	es := randEntries(rng, 100, 10)
	before := make([]Entry, len(es))
	copy(before, es)
	Bulk(es, 8)
	for i := range es {
		if es[i] != before[i] {
			t.Fatal("Bulk reordered the caller's slice")
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	es := randEntries(rng, 500, 10)
	tr := Bulk(es, 16)
	count := 0
	tr.Search(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, func(e Entry) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d entries, want 5", count)
	}
}

func TestSearchLeavesCoversAllHits(t *testing.T) {
	// Every entry intersecting q must appear in some visited leaf,
	// and visited leaves' MBRs must intersect q.
	rng := rand.New(rand.NewSource(5))
	es := randEntries(rng, 3000, 100)
	for _, tr := range []*Tree{Bulk(es, 32), insertAll(es, 32)} {
		for trial := 0; trial < 20; trial++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			q := geom.Rect{MinX: x, MinY: y, MaxX: x + 20, MaxY: y + 20}
			seen := map[int64]bool{}
			tr.SearchLeaves(q, func(mbr geom.Rect, leaf []Entry) {
				if !mbr.Intersects(q) {
					t.Fatalf("visited leaf with MBR %v not intersecting %v", mbr, q)
				}
				for _, e := range leaf {
					seen[e.Data] = true
				}
			})
			for _, want := range linearSearch(es, q) {
				if !seen[want] {
					t.Fatalf("entry %d intersects %v but was not in any visited leaf", want, q)
				}
			}
		}
	}
}

func insertAll(es []Entry, m int) *Tree {
	tr := New(m)
	for _, e := range es {
		tr.Insert(e.Rect, e.Data)
	}
	return tr
}

func TestDuplicateRects(t *testing.T) {
	// Many identical rectangles: splits must still terminate and
	// queries find all of them.
	tr := New(4)
	r := geom.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}
	for i := 0; i < 100; i++ {
		tr.Insert(r, int64(i))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	hits := collectSearch(tr, r)
	if len(hits) != 100 {
		t.Errorf("found %d duplicates, want 100", len(hits))
	}
}

func TestDegenerateRects(t *testing.T) {
	// Point and line rectangles index and query correctly.
	tr := New(8)
	tr.Insert(geom.Rect{MinX: 5, MinY: 5, MaxX: 5, MaxY: 5}, 1)  // point
	tr.Insert(geom.Rect{MinX: 0, MinY: 3, MaxX: 10, MaxY: 3}, 2) // h-line
	hits := collectSearch(tr, geom.Rect{MinX: 4, MinY: 2, MaxX: 6, MaxY: 6})
	if !sameIDs(hits, []int64{1, 2}) {
		t.Errorf("hits = %v, want [1 2]", hits)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	es := randEntries(rng, b.N+1, 100)
	tr := New(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(es[i].Rect, es[i].Data)
	}
}

func BenchmarkBulk10k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	es := randEntries(rng, 10000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Bulk(es, 32)
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	es := randEntries(rng, 100000, 100)
	tr := Bulk(es, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		q := geom.Rect{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1}
		tr.Search(q, func(e Entry) bool { return true })
	}
}
