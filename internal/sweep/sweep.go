// Package sweep implements the ordered active-interval structure D of
// Algorithm 2 in the paper: a plane-sweep coverage list over the
// non-sweep axis. D divides the axis into intervals, each carrying the
// total weight ("count") of the active rectangles covering it.
//
// Counts are float64 so that the same structure serves both the
// integer frequencies of the base model and the duration weights of
// the Section 8 extension.
//
// A subtlety worth recording: when several rectangles share a boundary
// coordinate, entry removal must be positional — remove the *first*
// entry at the boundary value — rather than by owning rectangle.
// Removing by owner can leave the wrong count governing the interval
// above a shared upper boundary. With positional removal the structure
// stays exact under any interleaving of insertions and removals
// (property-tested against a brute-force coverage oracle).
package sweep

import (
	"math"
	"sort"
)

// Entry is one breakpoint of the coverage list: the interval
// [Start, next.Start) is covered with total weight Count. Consecutive
// entries may share Start; such zero-width intervals contribute
// nothing to any integral and keep insert/remove symmetric.
type Entry struct {
	Start float64
	Count float64
}

// CoverageList is the structure D of Algorithm 2. The zero value is
// not ready to use; call New.
type CoverageList struct {
	entries []Entry
}

// New returns an empty coverage list covering the whole axis with
// count 0. The sentinel entry starts at -Inf.
func New() *CoverageList {
	return &CoverageList{entries: []Entry{{Start: math.Inf(-1), Count: 0}}}
}

// Reset restores the list to its initial empty state, retaining the
// allocated capacity.
func (d *CoverageList) Reset() {
	d.entries = d.entries[:1]
	d.entries[0] = Entry{Start: math.Inf(-1), Count: 0}
}

// Len returns the number of entries, including the sentinel.
func (d *CoverageList) Len() int { return len(d.entries) }

// Insert processes a Start event of a rectangle whose projection on
// the non-sweep axis is [lo, hi], adding weight w to every covered
// interval (Algorithm 2 lines 7-14).
//
//geo:hotpath
func (d *CoverageList) Insert(lo, hi, w float64) {
	// j: the last entry with Start <= lo (the sentinel guarantees
	// one exists).
	//lint:ignore hotalloc non-escaping predicate closure consumed by sort.Search; pinned at 0 allocs by the package AllocsPerRun tests
	j := sort.Search(len(d.entries), func(i int) bool { return d.entries[i].Start > lo }) - 1
	// Insert the new lower breakpoint right after j with the
	// covering interval's count plus w.
	d.insertAt(j+1, Entry{Start: lo, Count: d.entries[j].Count + w})
	// Raise every interval strictly inside (lo, hi).
	k := j + 2
	for k < len(d.entries) && d.entries[k].Start < hi {
		d.entries[k].Count += w
		k++
	}
	// The upper breakpoint restores the count of the interval it
	// splits: the last visited entry's (already raised) count
	// minus w.
	d.insertAt(k, Entry{Start: hi, Count: d.entries[k-1].Count - w})
}

// Remove processes an End event of a rectangle with projection
// [lo, hi] and weight w (Algorithm 2 lines 15-23). The rectangle must
// have been inserted earlier with the same bounds and weight.
//
//geo:hotpath
func (d *CoverageList) Remove(lo, hi, w float64) {
	// The first entry with Start == lo; positional removal (see the
	// package comment).
	//lint:ignore hotalloc non-escaping predicate closure consumed by sort.Search; pinned at 0 allocs by the package AllocsPerRun tests
	j := sort.Search(len(d.entries), func(i int) bool { return d.entries[i].Start >= lo })
	if j == len(d.entries) || d.entries[j].Start != lo {
		panic("sweep: Remove of a boundary that was never inserted")
	}
	d.removeAt(j)
	// Lower every interval strictly inside (lo, hi), including any
	// further zero-width breakpoints at lo itself.
	k := j
	for k < len(d.entries) && d.entries[k].Start < hi {
		d.entries[k].Count -= w
		k++
	}
	if k == len(d.entries) || d.entries[k].Start != hi {
		panic("sweep: Remove of an upper boundary that was never inserted")
	}
	d.removeAt(k)
}

// SumSquares returns the integral of Count² over the axis:
// Σ (next.Start − Start) · Count² across all intervals. Multiplied by
// a stripe width it is the stripe's contribution to the squared norm
// (Algorithm 2 lines 4-6).
//
//geo:hotpath
func (d *CoverageList) SumSquares() float64 {
	var s float64
	for i := 0; i+1 < len(d.entries); i++ {
		c := d.entries[i].Count
		if c == 0 {
			continue // also guards the -Inf sentinel interval
		}
		s += (d.entries[i+1].Start - d.entries[i].Start) * c * c
	}
	return s
}

// Segments calls f for every maximal interval [lo, hi) with a non-zero
// count, in ascending order. Zero-width intervals are skipped. This is
// the disjoint-region extraction of Section 5.1: each call corresponds
// to one disjoint region slice within the current sweep stripe.
func (d *CoverageList) Segments(f func(lo, hi, count float64)) {
	for i := 0; i+1 < len(d.entries); i++ {
		c := d.entries[i].Count
		lo, hi := d.entries[i].Start, d.entries[i+1].Start
		if c == 0 || lo == hi {
			continue
		}
		f(lo, hi, c)
	}
}

// IntegrateProduct returns the integral over the axis of the product
// of the two coverage functions: Σ |overlap| · countA · countB. This
// is the merge-join of Algorithm 3 lines 5-17, which computes the
// weighted intersection of the disjoint regions of the two footprints
// within the current stripe.
//
//geo:hotpath
func IntegrateProduct(a, b *CoverageList) float64 {
	ea, eb := a.entries, b.entries
	i, j := 0, 0
	var total float64
	y := math.Inf(-1)
	for {
		// Next breakpoint across both lists.
		ny := math.Inf(1)
		if i+1 < len(ea) {
			ny = ea[i+1].Start
		}
		if j+1 < len(eb) && eb[j+1].Start < ny {
			ny = eb[j+1].Start
		}
		if math.IsInf(ny, 1) {
			return total
		}
		// Counts governing [y, ny).
		ca, cb := ea[i].Count, eb[j].Count
		if ca != 0 && cb != 0 && ny > y {
			total += (ny - y) * ca * cb
		}
		// Advance past every breakpoint at ny (duplicates give
		// zero-width intervals; the last one governs).
		for i+1 < len(ea) && ea[i+1].Start <= ny {
			i++
		}
		for j+1 < len(eb) && eb[j+1].Start <= ny {
			j++
		}
		y = ny
	}
}

// insertAt shifts the tail up and writes e at i. The append grows the
// pooled entry slice only until it reaches its high-water capacity;
// steady state reuses it.
//
//geo:hotpath
func (d *CoverageList) insertAt(i int, e Entry) {
	d.entries = append(d.entries, Entry{})
	copy(d.entries[i+1:], d.entries[i:])
	d.entries[i] = e
}

// removeAt closes the gap at i, retaining capacity.
//
//geo:hotpath
func (d *CoverageList) removeAt(i int) {
	copy(d.entries[i:], d.entries[i+1:])
	d.entries = d.entries[:len(d.entries)-1]
}
