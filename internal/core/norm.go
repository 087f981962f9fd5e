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
//
// The rectangles come back in (MinX, MinY) order, a unique key because
// their interiors are disjoint: sketch construction and every other
// consumer that accumulates floats over the result depend on that
// order being a function of the footprint alone, or stored sketches,
// snapshots and replay would differ by an ulp from run to run. No sort
// is needed for it: the sweep opens stripes in increasing x, and within
// a stripe rectangles in increasing lo, so the order in which it opens
// rectangles is (MinX, MinY) order, and each lands in the slot it was
// given when opened.
func DisjointRegions(f Footprint) []WeightedRect {
	if len(f) == 0 {
		return nil
	}
	buf := acquireEvents(2 * len(f))
	evs := footprintEvents(f, 0, buf.evs)
	sortEvents(evs)
	d := sweep.Acquire()
	sc := disjointPool.Get().(*disjointScratch)
	// open holds the rectangles the next stripe may still extend — their
	// right edge is the sweep position — in the ascending order of lo in
	// which Segments produced them. A stripe's segments never share a
	// lo, so matching them against open is a merge join on (lo, hi, w).
	// out holds every rectangle in the order it was opened: a slot is
	// reserved when the sweep opens a rectangle, and filled when it closes.
	open, next, out := sc.open[:0], sc.next[:0], sc.out[:0]

	prev := evs[0].v
	for _, e := range evs {
		if e.v > prev {
			i := 0
			d.Segments(func(lo, hi, w float64) {
				for ; i < len(open) && open[i].lo < lo; i++ {
					open[i].close(out)
				}
				o := openRect{lo: lo, hi: hi, w: w, r: geom.Rect{MinX: prev, MinY: lo, MaxX: e.v, MaxY: hi}, slot: -1}
				if i < len(open) && open[i].lo == lo {
					if p := &open[i]; p.hi == hi && p.w == w && p.r.MaxX == prev {
						o.r, o.slot = p.r, p.slot
						o.r.MaxX = e.v
					} else {
						p.close(out)
					}
					i++
				}
				if o.slot < 0 { // opened here: reserve its slot
					o.slot = len(out)
					out = append(out, WeightedRect{})
				}
				next = append(next, o)
			})
			for ; i < len(open); i++ {
				open[i].close(out)
			}
			open, next = next, open[:0]
			prev = e.v
		}
		r := f[e.idx]
		if e.start {
			d.Insert(r.Rect.MinY, r.Rect.MaxY, r.Weight)
		} else {
			d.Remove(r.Rect.MinY, r.Rect.MaxY, r.Weight)
		}
	}
	for i := range open {
		open[i].close(out)
	}
	sweep.Release(d)
	releaseEvents(buf, evs)

	var res []WeightedRect
	if len(out) > 0 {
		res = slices.Clone(out)
	}
	if cap(out) <= maxPooledRects {
		sc.open, sc.next, sc.out = open, next, out
	}
	disjointPool.Put(sc)
	return res
}

// openRect is a rectangle DisjointRegions may still extend: r so far,
// the stripe segment (lo, hi, w) that last produced or extended it, and
// its slot in the output. r keeps the MinY/MaxY of its first stripe and
// the weight reported is that of its last — the two can differ from
// (lo, hi, w) only in the sign of a zero, but stored sketches are
// compared byte for byte.
type openRect struct {
	lo, hi, w float64
	r         geom.Rect
	slot      int
}

// close writes the finished rectangle into its slot of out.
func (o *openRect) close(out []WeightedRect) { out[o.slot] = WeightedRect{Rect: o.r, Weight: o.w} }

// disjointScratch is DisjointRegions' working memory: the two open
// lists and the rectangles in the order the sweep opened them. The
// function runs once per ad-hoc query (under sketch.Build), so only
// the returned slice is allocated afresh.
type disjointScratch struct {
	open, next []openRect
	out        []WeightedRect
}

var disjointPool = sync.Pool{New: func() any { return new(disjointScratch) }}

// maxPooledRects caps the rectangle list a pooled scratch keeps; a
// footprint of n regions can decompose into O(n²) rectangles once, and
// the pool must not hold on to that.
const maxPooledRects = 1 << 14
