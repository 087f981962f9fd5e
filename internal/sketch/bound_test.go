package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

// TestDotDenseMatchesBoundDot: the dense gather must agree bit for bit
// with the merge-join reference on materialised sketches — random
// sparse ones under every raster randomParams draws (G=1 makes
// single-cell sketches, domains smaller than the data make border
// cells), a hand-made single cell, an overflowed (+Inf) mass and peak,
// and the empty sketch — and the reference must be symmetric.
func TestDotDenseMatchesBoundDot(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	inf := float32(math.Inf(1))
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
			Sketch{Cells: []int32{last}, Mass: []float32{1}, Peak: []float32{2}, Root: []float64{0.5}},      // the last border cell alone
			Sketch{Cells: []int32{0}, Mass: []float32{2}, Peak: []float32{1}, Root: []float64{1.25}},        // the first
			Sketch{Cells: []int32{last}, Mass: []float32{inf}, Peak: []float32{inf}, Root: []float64{1e30}}) // overflowed
		for j := range sketches {
			b := &sketches[j]
			raster := Rasterize(b, p.G)
			for i := range sketches {
				a := &sketches[i]
				want := BoundDot(a, b)
				if got := DotDense(a, raster.Table()); math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("G=%d sketch pair (%d,%d): dense %v != reference %v", p.G, i, j, got, want)
				}
				if got := BoundDot(b, a); math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("G=%d sketch pair (%d,%d): reference not symmetric, %v vs %v", p.G, i, j, got, want)
				}
				if math.IsNaN(want) || want > Dot(a, b) {
					t.Fatalf("G=%d sketch pair (%d,%d): three-term sum %v, Cauchy–Schwarz sum %v", p.G, i, j, want, Dot(a, b))
				}
			}
			raster.Release()
		}
	}
}

// TestDotDenseAllocationFree pins the dense gather at zero allocations,
// matching the merge-join guard: it runs once per candidate per query
// on a young database, for every method.
func TestDotDenseAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := Params{G: 64, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
	a := Build(randomFootprint(rng, 24, 1), p)
	b := Build(randomFootprint(rng, 18, 1), p)
	var sink float64
	raster := Rasterize(&b, p.G)
	defer raster.Release()
	avg := testing.AllocsPerRun(200, func() {
		sink += DotDense(&a, raster.Table())
	})
	if avg != 0 {
		t.Fatalf("DotDense allocates %v times per run, want 0", avg)
	}
	_ = sink
}

// fuzzFootprint decodes a footprint from fuzz bytes: a first byte
// picking the footprint's weight magnitude, 1e-3 to 1e30 (huge weights
// overflow a float32 mass or peak to +Inf), then seven bytes per
// region — four coordinates on a 32-step lattice over [-0.25, 1.75]
// (so regions touch, nest, have zero width or height and overflow the
// unit domain), a two-byte weight mantissa in [1, 101) and a duplicate
// flag. The lattice is scaled by one of three magnitudes, so areas run
// from 1e-63 to 1e60. Within one footprint the weights span a factor of
// about a hundred: Algorithm 2's sweep, under both the norm and the
// sketch, sums the weights of overlapping regions, and a ratio near
// 2⁵³ cancels a light region out of both — frequencies never come
// close to that.
func fuzzFootprint(data []byte, scale float64) core.Footprint {
	if len(data) == 0 {
		return nil
	}
	magnitude := math.Pow(10, float64(int(data[0]%34)-3))
	data = data[1:]
	var f core.Footprint
	for len(data) >= 7 && len(f) < 24 {
		c := func(b byte) float64 { return (float64(b%65)/32 - 0.25) * scale }
		x0, x1, y0, y1 := c(data[0]), c(data[1]), c(data[2]), c(data[3])
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		w := (1 + float64(binary.LittleEndian.Uint16(data[4:6])%1000)/10) * magnitude
		r := core.Region{Rect: geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}, Weight: w}
		f = append(f, r)
		if data[6]&1 == 1 && len(f) < 24 {
			f = append(f, r)
		}
		data = data[7:]
	}
	core.SortByMinX(f)
	return f
}

// inRange reports whether s is structurally sound for a raster of
// resolution g: parallel columns of equal length and cells strictly
// increasing inside [0, g²), the shape DotDense's table indexing needs.
func inRange(s *Sketch, g int) bool {
	if len(s.Mass) != len(s.Cells) || len(s.Peak) != len(s.Cells) || len(s.Root) != len(s.Cells) {
		return false
	}
	prev := int32(-1)
	for _, c := range s.Cells {
		if c <= prev || int(c) >= g*g {
			return false
		}
		prev = c
	}
	return true
}

// FuzzSketchBound is the generated oracle of the three-term bound: for
// arbitrary positive-weight footprints — zero-width or zero-height,
// duplicated, nested, border-clamped, with huge weights — at any
// resolution, Build gives the bits the sorting Build gave, the bound
// dominates the similarity as computed (no tolerance), and the three
// kernels — the merge-join reference, the dense gather and the
// posting-list walk — give the same bits. The seeds are committed under
// testdata/fuzz/FuzzSketchBound.
func FuzzSketchBound(f *testing.F) {
	f.Add(uint8(64), uint8(1), []byte("\x03\x00\x20\x00\x20\x0a\x00\x00"), []byte("\x03\x10\x30\x10\x30\x14\x00\x01"))
	f.Fuzz(func(t *testing.T, g, scaleSel uint8, a, b []byte) {
		scale := []float64{1e-30, 1, 1e30}[scaleSel%3]
		p := Params{G: 1 + int(g)%96, Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: scale, MaxY: scale}}
		fa, fb := fuzzFootprint(a, scale), fuzzFootprint(b, scale)
		na, nb := core.Norm(fa), core.Norm(fb)
		sa, sb := Build(fa, p), Build(fb, p)
		for _, s := range []*Sketch{&sa, &sb} {
			if !inRange(s, p.G) {
				t.Fatalf("Build made a sketch outside its own %d×%d raster: %v", p.G, p.G, s.Cells)
			}
		}
		sameSketchBits(t, "footprint a", sa, buildSorted(fa, p))
		sameSketchBits(t, "footprint b", sb, buildSorted(fb, p))

		ref := BoundDot(&sa, &sb)
		raster := Rasterize(&sb, p.G)
		dense := DotDense(&sa, raster.Table())
		raster.Release()
		post := BuildPostings(p.G, 2, rowOf([]Sketch{sa, {}}))
		acc := make([]float64, 2)
		post.Accumulate(&sb, acc)
		if math.Float64bits(ref) != math.Float64bits(dense) || math.Float64bits(ref) != math.Float64bits(acc[0]) || acc[1] != 0 {
			t.Fatalf("G=%d: reference %v, gather %v, walk %v (empty user %v)", p.G, ref, dense, acc[0], acc[1])
		}

		sim := core.SimilarityJoin(fa, fb, na, nb)
		if bound := UpperBound(ref, na, nb); bound < sim || bound > 1 {
			t.Fatalf("G=%d scale %g: bound %.17g, similarity %.17g\na=%v\nb=%v", p.G, scale, bound, sim, fa, fb)
		}
		if self := UpperBound(BoundDot(&sa, &sa), na, na); na > 0 && self < core.SimilarityJoin(fa, fa, na, na) {
			t.Fatalf("G=%d scale %g: self bound %.17g below the self-similarity\na=%v", p.G, scale, self, fa)
		}
	})
}
