package core

import (
	"math/rand"
	"testing"

	"geofootprint/internal/geom"
)

func randomSortedFootprint(rng *rand.Rand, n int) Footprint {
	f := make(Footprint, n)
	for i := range f {
		x, y := rng.Float64(), rng.Float64()
		f[i] = Region{
			Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.04},
			Weight: float64(1 + rng.Intn(3)),
		}
	}
	SortByMinX(f)
	return f
}

// TestSimilarityJoinAllocationFree is the allocation-regression guard
// for the hot kernel of every search method: Algorithm 4 on sorted
// footprints (the store invariant) must allocate nothing per call.
func TestSimilarityJoinAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fr := randomSortedFootprint(rng, 24)
	fs := randomSortedFootprint(rng, 18)
	nr, ns := Norm(fr), Norm(fs)
	var sink float64
	avg := testing.AllocsPerRun(200, func() {
		sink += SimilarityJoin(fr, fs, nr, ns)
	})
	if avg != 0 {
		t.Fatalf("SimilarityJoin allocates %v times per run, want 0", avg)
	}
	_ = sink
}

// TestSimilaritySweepAllocationLean guards the pooled-buffer path of
// Algorithm 3: with the event buffer and both coverage lists taken
// from sync.Pools, the steady-state sweep must allocate nothing.
func TestSimilaritySweepAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts unstable")
	}
	rng := rand.New(rand.NewSource(11))
	fr := randomSortedFootprint(rng, 24)
	fs := randomSortedFootprint(rng, 18)
	nr, ns := Norm(fr), Norm(fs)
	var sink float64
	sink += SimilaritySweep(fr, fs, nr, ns) // warm the pools
	avg := testing.AllocsPerRun(200, func() {
		sink += SimilaritySweep(fr, fs, nr, ns)
	})
	if avg != 0 {
		t.Fatalf("SimilaritySweep allocates %v times per run, want 0", avg)
	}
	_ = sink
}

// TestNormSquaredAllocationLean guards the pooled Algorithm 2 path.
func TestNormSquaredAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts unstable")
	}
	rng := rand.New(rand.NewSource(13))
	f := randomSortedFootprint(rng, 32)
	var sink float64
	sink += NormSquared(f) // warm the pools
	avg := testing.AllocsPerRun(200, func() {
		sink += NormSquared(f)
	})
	if avg != 0 {
		t.Fatalf("NormSquared allocates %v times per run, want 0", avg)
	}
	_ = sink
}

// TestDisjointRegionsAllocationLean pins the map-free decomposition:
// the open lists and the closed rectangles are pooled, so a call
// allocates its returned slice and nothing else (the two per-call maps
// it replaces cost 14 to 22 allocations, BenchmarkDisjointRegionsBySize).
// It runs once per ad-hoc query, under sketch.Build.
func TestDisjointRegionsAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts unstable")
	}
	rng := rand.New(rand.NewSource(19))
	f := randomSortedFootprint(rng, 17)
	sink := len(DisjointRegions(f)) // warm the pools
	avg := testing.AllocsPerRun(200, func() {
		sink += len(DisjointRegions(f))
	})
	if avg > 2 {
		t.Fatalf("DisjointRegions allocates %v times per run, want at most 2", avg)
	}
	_ = sink
}
