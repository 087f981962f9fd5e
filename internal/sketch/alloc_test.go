package sketch

import (
	"math/rand"
	"testing"

	"geofootprint/internal/geom"
)

// TestDotAllocationFree pins the merge-join kernels at zero
// allocations, joining the Algorithm 4 / sweep guards in
// internal/core/alloc_test.go: sketch scoring runs once per candidate
// per query, so a single allocation here would dwarf the joins it
// saves.
func TestDotAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := Params{G: 64, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	a := Build(randomFootprint(rng, 24, 1), p)
	b := Build(randomFootprint(rng, 18, 1), p)
	var sink float64
	avg := testing.AllocsPerRun(200, func() {
		sink += Dot(&a, &b) + BoundDot(&a, &b)
	})
	if avg != 0 {
		t.Fatalf("Dot and BoundDot allocate %v times per run, want 0", avg)
	}
	_ = sink
}

// TestAccumulateAllocationFree pins the posting-list bound step — the
// weighing, the walk and the clearing walk — at zero allocations: it
// runs once per uncached query over tens of thousands of postings.
func TestAccumulateAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := Params{G: 64, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	sks := postingsLayer(rng, p, 200)
	post := BuildPostings(p.G, sks)
	q := Build(randomFootprint(rng, 18, 1), p)
	acc := make([]float64, len(sks))
	var sink int
	avg := testing.AllocsPerRun(200, func() {
		sink += post.Walk(&q)
		post.Accumulate(&q, acc)
		post.Clear(&q, acc)
	})
	if avg != 0 {
		t.Fatalf("Walk+Accumulate+Clear allocate %v times per run, want 0", avg)
	}
	_ = sink
}

// TestBuildAllocationLean pins what a query sketch costs the heap: the
// columns of the result (Mass and Peak share one array) and the
// disjoint-region list under them. Everything else — the per-cell sums,
// their index and sort order and the cell loads here, the open lists of
// core.DisjointRegions — is pooled.
func TestBuildAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts unstable")
	}
	rng := rand.New(rand.NewSource(29))
	p := Params{G: 64, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	f := randomFootprint(rng, 17, 1)
	sink := len(Build(f, p).Cells) // warm the pools
	avg := testing.AllocsPerRun(200, func() {
		sink += len(Build(f, p).Cells)
	})
	if avg > 4 {
		t.Fatalf("Build allocates %v times per run, want at most 4", avg)
	}
	_ = sink
}
