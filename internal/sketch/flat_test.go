package sketch

import (
	"math"
	"math/rand"
	"testing"

	"geofootprint/internal/geom"
)

// TestDotFlatMatchesDot: the flat-column kernel and the dense gather
// must agree bit-for-bit with Dot on materialised sketches — random
// sparse ones under every raster randomParams draws (G=1 makes
// single-cell sketches, domains smaller than the data make border
// cells), disjoint ones, a hand-made single cell and the empty sketch.
func TestDotFlatMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 12; round++ {
		p := randomParams(rng)
		if round == 0 {
			p = Params{G: 32, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
		}
		sketches := make([]Sketch, 40)
		for i := range sketches {
			sketches[i] = Build(randomFootprint(rng, 1+rng.Intn(20), 1), p)
		}
		last := int32(p.G*p.G - 1)
		sketches = append(sketches,
			Sketch{}, // empty
			Sketch{Cells: []int32{last}, Mass: []float64{1}, Root: []float64{0.5}}, // the last border cell alone
			Sketch{Cells: []int32{0}, Mass: []float64{2}, Root: []float64{1.25}})   // the first
		for j := range sketches {
			b := &sketches[j]
			raster := Rasterize(b, p.G)
			for i := range sketches {
				a := &sketches[i]
				want := Dot(a, b)
				if got := DotFlat(a.Cells, a.Root, b.Cells, b.Root); math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("G=%d sketch pair (%d,%d): flat %v != dot %v", p.G, i, j, got, want)
				}
				if got := DotDense(a.Cells, a.Root, raster.Table()); math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("G=%d sketch pair (%d,%d): dense %v != dot %v", p.G, i, j, got, want)
				}
			}
			raster.Release()
		}
	}
}

// TestDotFlatAllocationFree pins the flat kernel and the dense gather
// at zero allocations, matching the Dot guard: the gather runs once per
// candidate per query, for every method.
func TestDotFlatAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := Params{G: 64, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	a := Build(randomFootprint(rng, 24, 1), p)
	b := Build(randomFootprint(rng, 18, 1), p)
	var sink float64
	avg := testing.AllocsPerRun(200, func() {
		sink += DotFlat(a.Cells, a.Root, b.Cells, b.Root)
	})
	if avg != 0 {
		t.Fatalf("DotFlat allocates %v times per run, want 0", avg)
	}
	raster := Rasterize(&b, p.G)
	defer raster.Release()
	avg = testing.AllocsPerRun(200, func() {
		sink += DotDense(a.Cells, a.Root, raster.Table())
	})
	if avg != 0 {
		t.Fatalf("DotDense allocates %v times per run, want 0", avg)
	}
	_ = sink
}
