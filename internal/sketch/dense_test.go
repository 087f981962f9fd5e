package sketch

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

// buildByMap is Build as it was written before the per-call map and
// sort.Slice were removed: a per-cell accumulator filled in disjoint-
// region order. Stored sketches were made by it, so the rewritten
// Build must reproduce it bit for bit — its masses rounded up, as Build
// stores them. The peaks come from a per-cell map filled in region
// order, the oracle of FillPeak's sorted-run lookup.
func buildByMap(f core.Footprint, p Params) Sketch {
	if len(f) == 0 {
		return Sketch{}
	}
	g := p.G
	cw := (p.Domain.MaxX - p.Domain.MinX) / float64(g)
	ch := (p.Domain.MaxY - p.Domain.MinY) / float64(g)
	type cellAcc struct{ mass, energy float64 }
	acc := make(map[int32]cellAcc)
	for _, d := range core.DisjointRegions(f) {
		w := d.Weight
		ix0 := cellIndex(d.Rect.MinX, p.Domain.MinX, cw, g)
		ix1 := cellIndex(d.Rect.MaxX, p.Domain.MinX, cw, g)
		iy0 := cellIndex(d.Rect.MinY, p.Domain.MinY, ch, g)
		iy1 := cellIndex(d.Rect.MaxY, p.Domain.MinY, ch, g)
		for iy := iy0; iy <= iy1; iy++ {
			wy := spanOverlap(d.Rect.MinY, d.Rect.MaxY, p.Domain.MinY, ch, iy, g)
			if wy <= 0 {
				continue
			}
			for ix := ix0; ix <= ix1; ix++ {
				wx := spanOverlap(d.Rect.MinX, d.Rect.MaxX, p.Domain.MinX, cw, ix, g)
				if wx <= 0 {
					continue
				}
				a := wx * wy
				id := int32(iy*g + ix)
				c := acc[id]
				c.mass += w * a
				c.energy += w * w * a
				acc[id] = c
			}
		}
	}
	load := make(map[int32]float64)
	for _, r := range f {
		for iy := 0; iy < g; iy++ {
			if spanOverlap(r.Rect.MinY, r.Rect.MaxY, p.Domain.MinY, ch, iy, g) <= 0 {
				continue
			}
			for ix := 0; ix < g; ix++ {
				if spanOverlap(r.Rect.MinX, r.Rect.MaxX, p.Domain.MinX, cw, ix, g) > 0 {
					load[int32(iy*g+ix)] += r.Weight
				}
			}
		}
	}
	s := Sketch{Cells: []int32{}, Mass: []float32{}, Peak: []float32{}, Root: []float64{}}
	for id := range acc {
		s.Cells = append(s.Cells, id)
	}
	sort.Slice(s.Cells, func(i, j int) bool { return s.Cells[i] < s.Cells[j] })
	for _, id := range s.Cells {
		s.Mass = append(s.Mass, Float32Up(acc[id].mass))
		s.Peak = append(s.Peak, Float32Up(load[id]))
		s.Root = append(s.Root, math.Sqrt(acc[id].energy))
	}
	return s
}

// TestBuildMatchesMapAccumulator: same cells, same mass, peak and root
// bits, on footprints with heavy overlap (many contributions per cell)
// and rasters the footprints overflow; FillPeak alone, run on the
// stored cells as a loader runs it, gives the same peaks.
func TestBuildMatchesMapAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for it := 0; it < 300; it++ {
		p := randomParams(rng)
		f := randomFootprint(rng, rng.Intn(30), 0.2+rng.Float64())
		for i := range f {
			f[i].Weight *= 0.3 + rng.Float64() // sums that round
		}
		got, want := Build(f, p), buildByMap(f, p)
		if !slices.Equal(got.Cells, want.Cells) {
			t.Fatalf("iteration %d: cells %v, want %v", it, got.Cells, want.Cells)
		}
		peak := make([]float32, len(got.Cells))
		FillPeak(f, p, got.Cells, peak)
		for i := range want.Cells {
			if got.Mass[i] != want.Mass[i] || got.Peak[i] != want.Peak[i] || peak[i] != want.Peak[i] ||
				math.Float64bits(got.Root[i]) != math.Float64bits(want.Root[i]) {
				t.Fatalf("iteration %d cell %d: (mass, peak, root) = (%v, %v, %v), FillPeak %v, the map accumulator gives (%v, %v, %v)",
					it, want.Cells[i], got.Mass[i], got.Peak[i], got.Root[i], peak[i], want.Mass[i], want.Peak[i], want.Root[i])
			}
		}
	}
}

// TestRasterPoolHygiene: a released raster goes back all-zero, whatever
// it held and whatever resolution comes next, so one query's sketch can
// never leak into another's bounds.
func TestRasterPoolHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for it := 0; it < 200; it++ {
		p := randomParams(rng)
		s := Build(randomFootprint(rng, 1+rng.Intn(20), 1), p)
		r := Rasterize(&s, p.G)
		if len(r.Table()) != p.G*p.G {
			t.Fatalf("G=%d: table of %d cells", p.G, len(r.Table()))
		}
		set := 0
		for c, v := range r.Table() {
			if v != (Entry{}) {
				set++
				if i := sort.Search(len(s.Cells), func(i int) bool { return s.Cells[i] >= int32(c) }); i == len(s.Cells) || s.Cells[i] != int32(c) ||
					v != (Entry{Root: s.Root[i], Mass: s.Mass[i], Peak: s.Peak[i]}) {
					t.Fatalf("G=%d: table[%d] = %v is not the sketch's", p.G, c, v)
				}
			}
		}
		if set != len(s.Cells) {
			t.Fatalf("G=%d: %d cells set, sketch has %d", p.G, set, len(s.Cells))
		}
		table := r.Table()
		r.Release()
		for c, v := range table {
			if v != (Entry{}) {
				t.Fatalf("G=%d: released table still holds %v in cell %d", p.G, v, c)
			}
		}
	}
	// A sketch built for a finer raster is a caller's bug, reported as
	// such instead of as an index panic somewhere in the gather.
	fine := Sketch{Cells: []int32{3, 70}, Mass: []float32{1, 1}, Peak: []float32{1, 1}, Root: []float64{1, 1}}
	defer func() {
		if recover() == nil {
			t.Fatal("Rasterize accepted a sketch with cells outside the raster")
		}
	}()
	Rasterize(&fine, 8)
}

// TestSketchInRange: the structural check FuzzSketchBound runs on every
// sketch Build makes rejects each malformed shape.
func TestSketchInRange(t *testing.T) {
	ok := func(cells ...int32) Sketch {
		return Sketch{Cells: cells, Mass: make([]float32, len(cells)), Peak: make([]float32, len(cells)), Root: make([]float64, len(cells))}
	}
	for _, tc := range []struct {
		name string
		s    Sketch
		g    int
		want bool
	}{
		{"empty", Sketch{}, 4, true},
		{"all corners", ok(0, 3, 12, 15), 4, true},
		{"last cell of the raster", ok(15), 4, true},
		{"one past the raster", ok(16), 4, false},
		{"negative", ok(-1, 2), 4, false},
		{"duplicate", ok(2, 2), 4, false},
		{"descending", ok(5, 3), 4, false},
		{"short root column", Sketch{Cells: []int32{1, 2}, Mass: []float32{1, 1}, Peak: []float32{1, 1}, Root: []float64{1}}, 4, false},
		{"short mass column", Sketch{Cells: []int32{1}, Peak: []float32{1}, Root: []float64{1}}, 4, false},
		{"short peak column", Sketch{Cells: []int32{1, 2}, Mass: []float32{1, 1}, Peak: []float32{1}, Root: []float64{1, 1}}, 4, false},
		{"no peak column", Sketch{Cells: []int32{1}, Mass: []float32{1}, Root: []float64{1}}, 4, false},
	} {
		if got := inRange(&tc.s, tc.g); got != tc.want {
			t.Errorf("%s: InRange(%d) = %v, want %v", tc.name, tc.g, got, tc.want)
		}
	}
	if (Params{G: MaxG + 1, Domain: geom.Rect{MaxX: 1, MaxY: 1}}).Valid() {
		t.Errorf("Params with G above MaxG reported valid")
	}
}

// degenerateFootprint draws a footprint whose coordinates come from a
// small pool — so edges touch, regions repeat and some have no extent
// in one or both axes — including both signed zeros, scaled so that
// region areas sit near `scale`².
func degenerateFootprint(rng *rand.Rand, n int, scale float64) core.Footprint {
	pool := []float64{math.Copysign(0, -1), 0, 0.125, 0.25, 0.25, 0.5, 0.5, 0.75, 1}
	f := make(core.Footprint, 0, n)
	for len(f) < n {
		x0, x1 := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		y0, y1 := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		r := core.Region{
			Rect:   geom.Rect{MinX: x0 * scale, MinY: y0 * scale, MaxX: x1 * scale, MaxY: y1 * scale},
			Weight: float64(1 + rng.Intn(3)),
		}
		f = append(f, r)
		if rng.Intn(4) == 0 && len(f) < n {
			f = append(f, r) // exact duplicate
		}
	}
	core.SortByMinX(f)
	return f
}

// TestKernelsOnDegenerateFootprints is the differential test of the
// Algorithm 4 kernels after their move to the min/max builtins, on the
// inputs where a clipping mistake would show: touching edges,
// zero-extent and duplicate regions, ±0 coordinates, and region areas
// near 1e-300 and 1e300. On each pair the AoS and columnar kernels must
// agree bit for bit, both must agree with the coordinate-compression
// oracle of core/reference.go, and the sketch bound — through BoundDot
// and through the dense gather, which must agree bit for bit — must
// dominate the exact similarity, as computed.
func TestKernelsOnDegenerateFootprints(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	positive := map[float64]int{}
	for it := 0; it < 600; it++ {
		scale := []float64{1e-150, 1, 1e150}[it%3]
		r := degenerateFootprint(rng, 1+rng.Intn(8), scale)
		s := degenerateFootprint(rng, 1+rng.Intn(8), scale)
		nr, ns := core.Norm(r), core.Norm(s)

		join := core.SimilarityJoin(r, s, nr, ns)
		if join > 0 && join < 1 {
			positive[scale]++
		}
		var cols core.RegionCols
		for _, reg := range r {
			cols.MinX = append(cols.MinX, reg.Rect.MinX)
			cols.MinY = append(cols.MinY, reg.Rect.MinY)
			cols.MaxX = append(cols.MaxX, reg.Rect.MaxX)
			cols.MaxY = append(cols.MaxY, reg.Rect.MaxY)
			cols.W = append(cols.W, reg.Weight)
		}
		if flat := core.SimilarityJoinCols(&cols, 0, len(r), s, nr, ns); math.Float64bits(flat) != math.Float64bits(join) {
			t.Fatalf("iteration %d (scale %g): columnar kernel %v != join %v\nr=%v\ns=%v", it, scale, flat, join, r, s)
		}
		if naive := core.SimilarityNaive(r, s); math.Abs(naive-join) > 1e-9 {
			t.Fatalf("iteration %d (scale %g): join %v, reference %v\nr=%v\ns=%v", it, scale, join, naive, r, s)
		}

		gs := []int{1, 3, 8, 64}
		p := Params{G: gs[rng.Intn(len(gs))], Domain: geom.Rect{MinX: 0, MinY: 0, MaxX: scale, MaxY: scale}}
		if it%2 == 1 {
			// A domain the footprints overflow: the border clamp.
			p.Domain = geom.Rect{MinX: 0.25 * scale, MinY: 0.25 * scale, MaxX: 0.75 * scale, MaxY: 0.75 * scale}
		}
		sr, ss := Build(r, p), Build(s, p)
		raster := Rasterize(&ss, p.G)
		dot, dense := BoundDot(&sr, &ss), DotDense(&sr, raster.Table())
		raster.Release()
		if math.Float64bits(dot) != math.Float64bits(dense) {
			t.Fatalf("iteration %d (scale %g, G=%d): dense dot %v != dot %v", it, scale, p.G, dense, dot)
		}
		if bound := UpperBound(dense, nr, ns); bound < join {
			t.Fatalf("iteration %d (scale %g, G=%d): bound %v below the exact similarity %v\nr=%v\ns=%v",
				it, scale, p.G, bound, join, r, s)
		}
	}
	for _, scale := range []float64{1e-150, 1, 1e150} {
		if positive[scale] < 50 {
			t.Errorf("scale %g: only %d of 200 pairs had a similarity strictly between 0 and 1; the test is not exercising the kernels there", scale, positive[scale])
		}
	}
}
