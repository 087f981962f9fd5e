package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"geofootprint/internal/geom"
	"geofootprint/internal/sweep"
)

// disjointRegionsMap is DisjointRegions as it shipped until the sweep
// lost its maps: open rectangles keyed by (lo, hi, w) in two maps
// swapped per stripe, closed rectangles collected in map order and
// canonicalised by the final sort. It stays here as the oracle the
// merge-join sweep is fuzzed against — stored sketches are built from
// this decomposition, so "same rectangles" has to mean the same bits in
// the same order.
func disjointRegionsMap(f Footprint) []WeightedRect {
	if len(f) == 0 {
		return nil
	}
	buf := acquireEvents(2 * len(f))
	evs := footprintEvents(f, 0, buf.evs)
	sortEvents(evs)
	d := sweep.Acquire()
	defer func() {
		sweep.Release(d)
		releaseEvents(buf, evs)
	}()

	type ykey struct {
		lo, hi, w float64
	}
	open, next := make(map[ykey]geom.Rect), make(map[ykey]geom.Rect)
	var out []WeightedRect

	prev := evs[0].v
	for _, e := range evs {
		if e.v > prev {
			clear(next)
			d.Segments(func(lo, hi, w float64) {
				k := ykey{lo, hi, w}
				if r, ok := open[k]; ok && r.MaxX == prev {
					r.MaxX = e.v
					next[k] = r
				} else {
					next[k] = geom.Rect{MinX: prev, MinY: lo, MaxX: e.v, MaxY: hi}
				}
			})
			for k, r := range open {
				if nr, ok := next[k]; !ok || nr.MinX != r.MinX {
					out = append(out, WeightedRect{Rect: r, Weight: k.w})
				}
			}
			open, next = next, open
			prev = e.v
		}
		r := f[e.idx]
		if e.start {
			d.Insert(r.Rect.MinY, r.Rect.MaxY, r.Weight)
		} else {
			d.Remove(r.Rect.MinY, r.Rect.MaxY, r.Weight)
		}
	}
	for k, r := range open {
		out = append(out, WeightedRect{Rect: r, Weight: k.w})
	}
	slices.SortFunc(out, func(a, b WeightedRect) int {
		switch {
		case a.Rect.MinX < b.Rect.MinX:
			return -1
		case a.Rect.MinX > b.Rect.MinX:
			return 1
		case a.Rect.MinY < b.Rect.MinY:
			return -1
		case a.Rect.MinY > b.Rect.MinY:
			return 1
		default:
			return 0
		}
	})
	return out
}

// sameRectBits fails unless got and want hold the same rectangles in
// the same order, every float compared on its bits (so -0 ≠ +0 and a
// NaN weight equals itself).
func sameRectBits(t *testing.T, f Footprint, got, want []WeightedRect) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("%d rectangles (nil=%v), oracle %d (nil=%v)\ninput %+v", len(got), got == nil, len(want), want == nil, f)
	}
	bits := func(d WeightedRect) [5]uint64 {
		return [5]uint64{
			math.Float64bits(d.Rect.MinX), math.Float64bits(d.Rect.MinY),
			math.Float64bits(d.Rect.MaxX), math.Float64bits(d.Rect.MaxY),
			math.Float64bits(d.Weight),
		}
	}
	for i := range want {
		if bits(got[i]) != bits(want[i]) {
			t.Fatalf("rectangle %d: %+v, oracle %+v\ninput %+v", i, got[i], want[i], f)
		}
	}
}

// fuzzCoords and fuzzWeights are the values FuzzDisjointRegions decodes
// its bytes into: a coarse lattice, so edges coincide, rectangles nest
// and repeat, and widths and heights vanish; both zeros; extremes; and
// weights that cancel, overflow to +Inf and turn the coverage counts
// into NaN.
var (
	fuzzCoords = []float64{
		math.Copysign(0, -1), 0, 0.25, 0.5, 0.75, 1, 1.5, 2, 3,
		-1, -0.5, 1e-300, 1e300, math.Inf(-1), math.Inf(1), 0.1,
	}
	fuzzWeights = []float64{
		1, 2, 3, 0.5, -1, -2, 1e308, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.NaN(), 0,
	}
)

// fuzzFootprint decodes five bytes per region: two x lattice indexes,
// two y lattice indexes (each pair ordered, equal indexes giving a
// degenerate side) and a weight index. At most 32 regions.
func fuzzFootprint(data []byte) Footprint {
	var f Footprint
	for ; len(data) >= 5 && len(f) < 32; data = data[5:] {
		pick := func(a, b byte) (lo, hi float64) {
			lo, hi = fuzzCoords[int(a)%len(fuzzCoords)], fuzzCoords[int(b)%len(fuzzCoords)]
			if hi < lo {
				lo, hi = hi, lo
			}
			return lo, hi
		}
		x0, x1 := pick(data[0], data[1])
		y0, y1 := pick(data[2], data[3])
		f = append(f, Region{
			Rect:   geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1},
			Weight: fuzzWeights[int(data[4])%len(fuzzWeights)],
		})
	}
	return f
}

// FuzzDisjointRegions holds the merge-join sweep to the map
// implementation it replaced: identical rectangles, bits and order, on
// arbitrary lattice footprints. The seeds under testdata/fuzz name the
// shapes that distinguish the two designs.
func FuzzDisjointRegions(f *testing.F) {
	f.Add([]byte{1, 5, 1, 5, 0, 3, 7, 1, 5, 0})                // two overlapping squares
	f.Add([]byte{1, 5, 1, 5, 0, 1, 5, 1, 5, 0, 1, 5, 1, 5, 4}) // duplicates, one cancelling
	f.Fuzz(func(t *testing.T, data []byte) {
		fp := fuzzFootprint(data)
		sameRectBits(t, fp, DisjointRegions(fp), disjointRegionsMap(fp))
	})
}

// TestDisjointRegionsMatchesMapOracle is the same comparison on
// generated footprints of realistic shape, so the plain test run covers
// what the fuzzer would need minutes to reach: dozens of overlapping
// regions on and off a lattice, long runs of continued rectangles, and
// decoded byte strings of every length.
func TestDisjointRegionsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 300; trial++ {
		f := randFootprint(rng, rng.Intn(40), 10)
		if trial%3 == 0 {
			// Off the lattice: no two edges coincide any more.
			for i := range f {
				r := &f[i].Rect
				r.MinX, r.MinY = r.MinX+rng.Float64()/4, r.MinY+rng.Float64()/4
				r.MaxX, r.MaxY = r.MaxX+rng.Float64()/4, r.MaxY+rng.Float64()/4
			}
		}
		sameRectBits(t, f, DisjointRegions(f), disjointRegionsMap(f))
	}
	buf := make([]byte, 160)
	for trial := 0; trial < 2000; trial++ {
		rng.Read(buf)
		f := fuzzFootprint(buf[:5*(1+rng.Intn(32))])
		sameRectBits(t, f, DisjointRegions(f), disjointRegionsMap(f))
	}
}
