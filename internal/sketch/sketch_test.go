package sketch

import (
	"math"
	"math/rand"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

func randomFootprint(rng *rand.Rand, n int, spread float64) core.Footprint {
	f := make(core.Footprint, n)
	for i := range f {
		x, y := rng.Float64()*spread, rng.Float64()*spread
		w := 0.01 + rng.Float64()*0.08
		h := 0.01 + rng.Float64()*0.08
		f[i] = core.Region{
			Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h},
			Weight: float64(1 + rng.Intn(4)),
		}
	}
	core.SortByMinX(f)
	return f
}

func randomParams(rng *rand.Rand) Params {
	gs := []int{1, 2, 7, 16, 32, 64}
	p := Params{G: gs[rng.Intn(len(gs))]}
	switch rng.Intn(3) {
	case 0:
		// Domain covering every generated footprint.
		p.Domain = geom.Rect{MinX: 0, MinY: 0, MaxX: 1.2, MaxY: 1.2}
	case 1:
		// Domain the footprints overflow on all sides: exercises the
		// border-cell clamp.
		p.Domain = geom.Rect{MinX: 0.2, MinY: 0.3, MaxX: 0.7, MaxY: 0.8}
	default:
		// Offset domain, footprints partly outside.
		p.Domain = geom.Rect{MinX: -0.5, MinY: 0.1, MaxX: 0.9, MaxY: 1.5}
	}
	return p
}

// TestUpperBoundDominatesSimilarity is the correctness property of the
// whole filter layer: for any two footprints and any shared raster,
// the sketch bound must dominate the exact Equation 1 similarity — as
// computed, with no tolerance: the slack UpperBound adds is what makes
// the comparison exact. Domains smaller than the data are included, so
// the border clamp is covered too.
func TestUpperBoundDominatesSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for it := 0; it < 500; it++ {
		p := randomParams(rng)
		fx := randomFootprint(rng, 1+rng.Intn(20), 1)
		fy := randomFootprint(rng, 1+rng.Intn(20), 1)
		sx, sy := Build(fx, p), Build(fy, p)
		nx, ny := core.Norm(fx), core.Norm(fy)

		sim := core.SimilarityJoin(fx, fy, nx, ny)
		bound := UpperBound(BoundDot(&sx, &sy), nx, ny)
		if bound < sim {
			t.Fatalf("iteration %d (G=%d domain=%v): bound %.17g < similarity %.17g",
				it, p.G, p.Domain, bound, sim)
		}
		if bound > 1 {
			t.Fatalf("iteration %d: bound %v above 1", it, bound)
		}
		if cs := UpperBound(Dot(&sx, &sy), nx, ny); bound > cs {
			t.Fatalf("iteration %d: three-term bound %v looser than Cauchy–Schwarz alone %v", it, bound, cs)
		}
	}
}

// TestSketchConservation checks the invariants the bound proof rests
// on, even when the footprint overflows the domain: the norm is
// preserved (Σ Root² = ||f||² up to round-off); every stored mass is the
// float32 at or above the cell's mass, so they sum to the total mass
// (Σ |R|·w) within float32 rounding and never below it; and every peak
// is at least the weight of every region meeting the cell and at most
// the sum of all weights.
func TestSketchConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 200; it++ {
		p := randomParams(rng)
		f := randomFootprint(rng, 1+rng.Intn(24), 1)
		s := Build(f, p)

		var wantMass, weights, maxW float64
		for _, r := range f {
			wantMass += r.Rect.Area() * r.Weight
			weights += r.Weight
			maxW = max(maxW, r.Weight)
		}
		var mass float64
		for _, m := range s.Mass {
			mass += float64(m)
		}
		if mass < wantMass*(1-1e-12) || mass > wantMass*(1+1e-6) {
			t.Fatalf("iteration %d: mass %v, want %v rounded up", it, mass, wantMass)
		}
		wantSq := core.NormSquared(f)
		var sq float64
		for _, r := range s.Root {
			sq += r * r
		}
		if math.Abs(sq-wantSq) > 1e-9*(1+wantSq) {
			t.Fatalf("iteration %d: norm² %v, want %v", it, sq, wantSq)
		}
		for i, pk := range s.Peak {
			if pk <= 0 || pk > Float32Up(weights) || (len(f) == 1 && pk != Float32Up(maxW)) {
				t.Fatalf("iteration %d cell %d: peak %v outside (0, %v]", it, s.Cells[i], pk, weights)
			}
		}
	}
}

// TestFloat32Up: the narrowing is the least float32 at or above its
// argument, everywhere in range and at both ends of it.
func TestFloat32Up(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for it := 0; it < 10000; it++ {
		x := math.Ldexp(rng.Float64(), rng.Intn(200)-100)
		f := Float32Up(x)
		if float64(f) < x || (f > 0 && float64(math.Nextafter32(f, 0)) >= x) {
			t.Fatalf("Float32Up(%v) = %v", x, f)
		}
	}
	for x, want := range map[float64]float32{
		0: 0, 1: 1, 0.5: 0.5, math.MaxFloat32: math.MaxFloat32,
		math.Nextafter(math.MaxFloat32, math.Inf(1)): float32(math.Inf(1)),
		1e300: float32(math.Inf(1)), 1e-300: math.SmallestNonzeroFloat32,
	} {
		if got := Float32Up(x); got != want {
			t.Errorf("Float32Up(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestBuildDeterministic: same footprint, same params — identical
// sketch, regardless of map iteration order inside Build.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := Params{G: 32, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	f := randomFootprint(rng, 16, 1)
	a, b := Build(f, p), Build(f, p)
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] || a.Mass[i] != b.Mass[i] || a.Peak[i] != b.Peak[i] || a.Root[i] != b.Root[i] {
			t.Fatalf("cell %d differs: %v/%v/%v/%v vs %v/%v/%v/%v",
				i, a.Cells[i], a.Mass[i], a.Peak[i], a.Root[i], b.Cells[i], b.Mass[i], b.Peak[i], b.Root[i])
		}
	}
}

// TestSelfBoundIsOne: the bound of a footprint against itself is
// exactly its self-similarity (1): Dot(s, s) = Σ Root² = ||f||².
func TestSelfBoundIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := Params{G: 64, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	for it := 0; it < 50; it++ {
		f := randomFootprint(rng, 1+rng.Intn(12), 1)
		s := Build(f, p)
		n := core.Norm(f)
		if b := UpperBound(Dot(&s, &s), n, n); math.Abs(b-1) > 1e-9 {
			t.Fatalf("self bound %v, want 1", b)
		}
	}
}

// TestDisjointSketchesBoundZero: footprints in different grid cells
// share no sketch cells, so the filter rejects them outright.
func TestDisjointSketchesBoundZero(t *testing.T) {
	p := Params{G: 16, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	fa := core.Footprint{{Rect: geom.Rect{MinX: 0.01, MinY: 0.01, MaxX: 0.05, MaxY: 0.05}, Weight: 1}}
	fb := core.Footprint{{Rect: geom.Rect{MinX: 0.90, MinY: 0.90, MaxX: 0.95, MaxY: 0.95}, Weight: 2}}
	sa, sb := Build(fa, p), Build(fb, p)
	if d := Dot(&sa, &sb); d != 0 {
		t.Fatalf("disjoint sketches dot %v, want 0", d)
	}
}

// TestEmptyAndDegenerate covers the zero-value paths.
func TestEmptyAndDegenerate(t *testing.T) {
	p := Params{G: 8, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	var empty Sketch
	s := Build(nil, p)
	if s.Len() != 0 {
		t.Fatalf("sketch of nil footprint has %d cells", s.Len())
	}
	if Dot(&s, &empty) != 0 {
		t.Fatal("dot with empty sketch not 0")
	}
	if UpperBound(0, 0, 1) != 0 || UpperBound(5, 1, 1) != 1 {
		t.Fatal("UpperBound clamp broken")
	}
	// Degenerate (zero-area) regions carry no mass.
	deg := core.Footprint{{Rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.7}, Weight: 3}}
	if ds := Build(deg, p); ds.Len() != 0 {
		t.Fatalf("degenerate footprint occupies %d cells, want none", ds.Len())
	}
}

// TestFitDomain pads empty and degenerate rectangles into usable
// domains.
func TestFitDomain(t *testing.T) {
	if d := FitDomain(geom.EmptyRect()); !(Params{G: 1, Domain: d}).Valid() {
		t.Fatalf("FitDomain(empty) = %v invalid", d)
	}
	if d := FitDomain(geom.Rect{MinX: 2, MinY: 3, MaxX: 2, MaxY: 3}); !(Params{G: 1, Domain: d}).Valid() {
		t.Fatalf("FitDomain(point) = %v invalid", d)
	}
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 2}
	if FitDomain(r) != r {
		t.Fatalf("FitDomain altered a valid rect")
	}
}

// FuzzUpperBound drives the domination property from fuzzed rectangle
// coordinates: two three-region footprints derived from the inputs
// must never exceed their sketch bound. FuzzSketchBound (bound_test.go)
// covers arbitrary footprints and the agreement of the three kernels.
func FuzzUpperBound(f *testing.F) {
	f.Add(0.1, 0.2, 0.3, 0.4, 0.15, 0.25, int64(1))
	f.Add(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, int64(9))
	f.Fuzz(func(t *testing.T, x, y, w, h, qx, qy float64, seed int64) {
		for _, v := range []float64{x, y, w, h, qx, qy} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip("out of modelled range")
			}
		}
		rng := rand.New(rand.NewSource(seed))
		mk := func(ox, oy float64) core.Footprint {
			fp := core.Footprint{
				{Rect: geom.Rect{MinX: ox, MinY: oy, MaxX: ox + math.Abs(w) + 0.01, MaxY: oy + math.Abs(h) + 0.01}, Weight: 1},
				{Rect: geom.Rect{MinX: ox + 0.02, MinY: oy + 0.01, MaxX: ox + 0.07, MaxY: oy + 0.05}, Weight: 2},
				{Rect: geom.Rect{MinX: ox - 0.03, MinY: oy, MaxX: ox + 0.01, MaxY: oy + 0.02}, Weight: 1},
			}
			core.SortByMinX(fp)
			return fp
		}
		fx, fy := mk(x, y), mk(qx, qy)
		p := Params{G: 1 + rng.Intn(48), Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
		sx, sy := Build(fx, p), Build(fy, p)
		nx, ny := core.Norm(fx), core.Norm(fy)
		sim := core.SimilarityJoin(fx, fy, nx, ny)
		bound := UpperBound(BoundDot(&sx, &sy), nx, ny)
		if bound < sim {
			t.Fatalf("G=%d: bound %.17g < similarity %.17g", p.G, bound, sim)
		}
	})
}
