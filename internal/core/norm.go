package core

import (
	"math"
	"slices"
	"sync"

	"geofootprint/internal/geom"
	"geofootprint/internal/sweep"
)

// event is one stop of the sweep line: the projection endpoint of a
// region on the sorting (x) axis.
type event struct {
	v     float64
	idx   int32 // region index within its footprint
	src   int8  // 0 = F(r), 1 = F(s); unused by Norm
	start bool
}

// sortEvents orders events by coordinate; on ties, Start events come
// first so that a degenerate (zero-width) region is inserted before it
// is removed. Tie order between different regions is immaterial: the
// stripe between equal coordinates has zero width. slices.SortFunc
// (rather than sort.Slice) keeps the sort allocation-free.
//
//geo:hotpath
func sortEvents(evs []event) {
	//lint:ignore hotalloc non-escaping comparison closure passed to the generic slices.SortFunc; pinned at 0 allocs by TestSimilarityJoinAllocationFree
	slices.SortFunc(evs, func(a, b event) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		case a.start == b.start:
			return 0
		case a.start:
			return -1
		default:
			return 1
		}
	})
}

// eventPool recycles the sweep-event buffers of Algorithms 2 and 3.
// The buffers are pooled behind a pointer wrapper so that Put does not
// allocate a fresh slice header box per release.
var eventPool = sync.Pool{New: func() interface{} { return new(eventBuf) }}

type eventBuf struct{ evs []event }

// acquireEvents returns an empty event buffer with capacity for at
// least n events; steady-state acquisition allocates nothing.
//
//geo:hotpath
func acquireEvents(n int) *eventBuf {
	b := eventPool.Get().(*eventBuf)
	if cap(b.evs) < n {
		//lint:ignore hotalloc pool refill when a larger buffer is first needed; amortised to zero by the sync.Pool (TestNormSquaredAllocationLean)
		b.evs = make([]event, 0, n)
	} else {
		b.evs = b.evs[:0]
	}
	return b
}

// releaseEvents returns a buffer (with its final slice, so grown
// capacity is retained) to the pool.
//
//geo:hotpath
func releaseEvents(b *eventBuf, evs []event) {
	b.evs = evs[:0]
	eventPool.Put(b)
}

//geo:hotpath
func footprintEvents(f Footprint, src int8, evs []event) []event {
	for i, r := range f {
		evs = append(evs,
			event{v: r.Rect.MinX, idx: int32(i), src: src, start: true},
			event{v: r.Rect.MaxX, idx: int32(i), src: src, start: false},
		)
	}
	return evs
}

// Norm computes the Euclidean norm ||F(r)|| of a footprint (Equation 2)
// with the plane-sweep Algorithm 2: O(n²) time, O(n) space. The norm
// of an empty footprint — or one whose regions all have zero area —
// is 0.
func Norm(f Footprint) float64 {
	return math.Sqrt(NormSquared(f))
}

// NormSquared returns ||F(r)||², the sum over the disjoint regions X
// of |X|·f_X² (the quantity ssq of Algorithm 2). It is exposed
// separately because similarity search accumulates squared norms.
//
//geo:hotpath
func NormSquared(f Footprint) float64 {
	if len(f) == 0 {
		return 0
	}
	buf := acquireEvents(2 * len(f))
	evs := footprintEvents(f, 0, buf.evs)
	sortEvents(evs)
	d := sweep.Acquire()
	var ssq float64
	prev := evs[0].v
	for _, e := range evs {
		if e.v > prev {
			// Contribution of the disjoint regions in the stripe
			// [prev, e.v] (Algorithm 2 lines 4-6).
			ssq += d.SumSquares() * (e.v - prev)
			prev = e.v
		}
		r := f[e.idx]
		if e.start {
			d.Insert(r.Rect.MinY, r.Rect.MaxY, r.Weight)
		} else {
			d.Remove(r.Rect.MinY, r.Rect.MaxY, r.Weight)
		}
	}
	sweep.Release(d)
	releaseEvents(buf, evs)
	return ssq
}

// Compact rewrites a footprint as its disjoint-region decomposition:
// non-overlapping rectangles whose weights are the total frequencies
// of the original regions covering them — the alternative footprint
// representation of Section 5.1. Compaction preserves the norm and
// every similarity exactly (Equations 1-2 are defined on the frequency
// function, which is unchanged); it trades more regions for
// overlap-freedom, which some downstream consumers (rendering,
// planogram joins) prefer.
func Compact(f Footprint) Footprint {
	drs := DisjointRegions(f)
	g := make(Footprint, len(drs))
	for i, d := range drs {
		g[i] = Region{Rect: d.Rect, Weight: d.Weight}
	}
	SortByMinX(g)
	return g
}

// DisjointRegions decomposes a footprint into non-overlapping
// rectangles with their total weights — the (X, f_X) representation of
// Section 4, obtained as the by-product of Algorithm 2 described in
// Section 5.1. Horizontally adjacent stripe slices with the same
// vertical interval and weight are merged, so the output is compact.
// The union of the result equals the union of the input regions, and
// Σ |X|·f_X² equals NormSquared(f).
func DisjointRegions(f Footprint) []WeightedRect {
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
	// open tracks rectangles still extendable by the next stripe:
	// their right edge equals the current sweep position.
	// Two maps for the whole sweep, swapped and cleared per stripe.
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
			// Emit rectangles that did not continue into this stripe.
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
	// Rectangles are collected from map walks, so their order so far is
	// nondeterministic. Canonicalize it: downstream consumers that
	// accumulate floats over the result (sketch construction, norms by
	// summation) would otherwise produce run-to-run ULP differences,
	// breaking byte-identical snapshots and replay determinism. The
	// rectangles have disjoint interiors, so (MinX, MinY) is a unique
	// sort key.
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
