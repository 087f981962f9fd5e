// Package sketch implements a compact grid fingerprint of a
// geo-footprint — the filter half of a filter-and-refine layer over the
// Section 6 searches (in the spirit of Geodabs' trajectory fingerprints
// and SEAL's bounded filtering).
//
// A sketch rasterises the footprint's frequency function f onto a fixed
// G×G grid over a shared domain. Cell c stores three numbers:
//
//   - Root[c] = sqrt(∫_c f²) — the cell's contribution to the norm,
//     so that Σ_c Root[c]² = ||f||² (Equation 2);
//   - Mass[c] ≥ ∫_c f        — the frequency mass inside the cell;
//   - Peak[c] ≥ sup_c f      — the cell load: the summed weights of the
//     regions that meet the cell with positive area.
//
// Root and Mass are computed from the footprint's disjoint-region
// decomposition (the by-product of Algorithm 2), so no overlap is
// double-counted; Peak needs only the regions themselves (FillPeak).
// Mass and Peak are kept as float32 rounded toward +∞ — they only ever
// bound from above — which is what lets a posting carry both in 8 bytes.
// Cells on the domain boundary extend to infinity: mass outside the
// domain is clamped into the nearest border cell, which keeps the
// totals — and the bound below — exact for footprints that outgrow the
// domain.
//
// The point of the sketch is the per-cell bound. For two footprints x
// and y sharing the same Params, every cell obeys three inequalities at
// once —
//
//	∫_c f_x·f_y  ≤  sqrt(∫_c f_x²) · sqrt(∫_c f_y²)  =  Root_x[c]·Root_y[c]   (Cauchy–Schwarz)
//	∫_c f_x·f_y  ≤  ∫_c f_x · sup_c f_y              ≤  Mass_x[c]·Peak_y[c]   (Hölder)
//	∫_c f_x·f_y  ≤  sup_c f_x · ∫_c f_y              ≤  Peak_x[c]·Mass_y[c]   (Hölder)
//
// — because the border-extended cells partition the plane and weights
// are positive. Summing the smallest of the three over the cells bounds
// the numerator of Equation 1 by BoundDot(x, y); since every term is at
// most the Cauchy–Schwarz one, a second Cauchy–Schwarz over the cell
// axis bounds the sum by ||x||·||y||, so BoundDot(x, y) / (||x||·||y||)
// is a provable upper bound on the similarity that never exceeds 1 (up
// to round-off, which UpperBound absorbs with an explicit slack). The
// Cauchy–Schwarz term is tight where the two footprints look alike
// inside a cell; the Hölder terms bite where one of them covers much
// less of the cell than the other — the common case for a query
// against an MBR-overlapping candidate.
//
// Sketches are sparse: footprints cover a tiny fraction of the domain,
// so only occupied cells are stored, sorted by linear cell id. BoundDot
// is an allocation-free two-pointer merge join — the reference kernel —
// and DotDense (dense.go) the same sum as a gather against a query
// scattered once into a dense table. Postings (postings.go) is the
// whole layer transposed cell-major, so that one query's bounds against
// every user sharing a cell with it are a walk down the posting lists
// of its own few dozen cells; a search bounds its candidates by the
// walk or by the gather, whichever visits less (the same bits either
// way), which is what makes sketch scoring cheap enough to run for
// every candidate of every search before any Algorithm 4 refinement.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

// DefaultG is the default grid resolution. The geobench resolution
// sweep (`geobench -exp sketch`, recorded in EXPERIMENTS.md) picks it:
// at 64 the cell size (≈0.016 of the unit domain) is comparable to one
// RoI, which is where the refinement rate stops improving appreciably
// while sketches stay a few dozen cells.
const DefaultG = 64

// MaxG is the largest resolution a sketch layer may have. The bound
// step scatters the query sketch into a dense G×G table (Raster), so G
// sizes an allocation on the query path: at MaxG the table is 16 MiB.
// store.EnableSketches clamps to it and colstore.Open refuses a file
// that claims more, so a corrupt manifest cannot turn into a G²-sized
// allocation.
const MaxG = 1024

// Params fixes the raster every sketch of a database shares: the
// resolution G and the domain rectangle the grid tiles. Two sketches
// are comparable (BoundDot is meaningful) only under identical Params.
type Params struct {
	G      int
	Domain geom.Rect
}

// Valid reports whether p defines a usable raster: a resolution in
// [1, MaxG] and a domain with positive extent in both axes.
func (p Params) Valid() bool {
	return p.G > 0 && p.G <= MaxG && p.Domain.MaxX > p.Domain.MinX && p.Domain.MaxY > p.Domain.MinY
}

// FitDomain widens r into a valid sketch domain: an empty or degenerate
// rectangle is padded to positive extent so cell widths are never zero.
func FitDomain(r geom.Rect) geom.Rect {
	if r.IsEmpty() {
		return geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	}
	if r.MaxX <= r.MinX {
		r.MaxX = r.MinX + 1
	}
	if r.MaxY <= r.MinY {
		r.MaxY = r.MinY + 1
	}
	return r
}

// Sketch is the sparse raster of one footprint: the occupied cells in
// increasing linear cell id (y*G + x), with their norm contributions,
// masses and peaks (see the package comment). The zero value is the
// sketch of an empty footprint.
type Sketch struct {
	Cells []int32
	Mass  []float32
	Peak  []float32
	Root  []float64
}

// Len returns the number of occupied cells.
func (s *Sketch) Len() int { return len(s.Cells) }

// Float32Up rounds x to the nearest float32 at or above it (+Inf past
// the float32 range): the rounding every stored Mass and Peak gets, so
// that narrowing never loosens a bound into an unsound one.
func Float32Up(x float64) float32 {
	if x > math.MaxFloat32 {
		return float32(math.Inf(1))
	}
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// Build rasterises the footprint under p. The footprint's disjoint
// regions (Algorithm 2's by-product) are each split across the grid
// cells they overlap; a disjoint region of weight w contributes
// w·|d∩c| to Mass[c] and w²·|d∩c| to Root[c]² — exact, because
// disjoint regions do not overlap. Peak comes from the regions
// themselves (FillPeak). Build panics if p is not Valid.
func Build(f core.Footprint, p Params) Sketch {
	if !p.Valid() {
		panic(fmt.Sprintf("sketch: invalid params %+v", p))
	}
	if len(f) == 0 {
		return Sketch{}
	}
	g := p.G
	cw := (p.Domain.MaxX - p.Domain.MinX) / float64(g)
	ch := (p.Domain.MaxY - p.Domain.MinY) / float64(g)

	// Each (disjoint region, cell) contribution is added to its cell's
	// running sums as it is generated, in region order — the order fixed
	// for every stored sketch, so each sum keeps its bits — and only the
	// distinct cells are sorted afterwards: O(contributions + cells·log
	// cells).
	sc := buildPool.Get().(*buildScratch)
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
				// The conversions round each product before it is added:
				// no platform may fuse the two into one multiply-add,
				// whose other rounding would change stored sketches.
				c := sc.cell(int32(iy*g + ix))
				c.mass += float64(w * a)
				c.energy += float64(w * w * a)
			}
		}
	}
	order := sc.order[:0]
	for i := range sc.sums {
		order = append(order, uint64(sc.sums[i].cell)<<32|uint64(i))
	}
	slices.Sort(order)
	cells := len(order)
	// Mass and Peak share one allocation, capacity-bounded apart.
	narrow := make([]float32, 2*cells)
	s := Sketch{
		Cells: make([]int32, cells),
		Mass:  narrow[:cells:cells],
		Peak:  narrow[cells:],
		Root:  make([]float64, cells),
	}
	for j, key := range order {
		c := &sc.sums[uint32(key)]
		s.Cells[j] = c.cell
		s.Mass[j] = Float32Up(c.mass)
		s.Root[j] = math.Sqrt(c.energy)
	}
	sc.order = order
	sc.reset()
	sc.load = fillPeak(f, p, s.Cells, s.Peak, sc.load)
	buildPool.Put(sc)
	return s
}

// FillPeak writes into peak (parallel to cells, the occupied cells of
// f's sketch under p) each cell's load: the sum of the weights of f's
// regions that overlap the border-extended cell with positive length in
// both axes, in region order, rounded up to float32. The frequency
// function never exceeds it inside the cell except on a null set, which
// is all the Hölder terms need. Build fills Peak with it; loaders of
// snapshots written before the column existed call it on the stored
// footprint, so a peak has the same bits whichever way it was made.
func FillPeak(f core.Footprint, p Params, cells []int32, peak []float32) {
	sc := buildPool.Get().(*buildScratch)
	sc.load = fillPeak(f, p, cells, peak, sc.load)
	buildPool.Put(sc)
}

// fillPeak is FillPeak over a caller's scratch, which it returns
// (grown, when it had to be).
func fillPeak(f core.Footprint, p Params, cells []int32, peak []float32, load []float64) []float64 {
	load = slices.Grow(load[:0], len(cells))[:len(cells)]
	clear(load)
	g := p.G
	cw := (p.Domain.MaxX - p.Domain.MinX) / float64(g)
	ch := (p.Domain.MaxY - p.Domain.MinY) / float64(g)
	for i := range f {
		r := &f[i].Rect
		ix0 := cellIndex(r.MinX, p.Domain.MinX, cw, g)
		ix1 := cellIndex(r.MaxX, p.Domain.MinX, cw, g)
		iy0 := cellIndex(r.MinY, p.Domain.MinY, ch, g)
		iy1 := cellIndex(r.MaxY, p.Domain.MinY, ch, g)
		for iy := iy0; iy <= iy1; iy++ {
			if spanOverlap(r.MinY, r.MaxY, p.Domain.MinY, ch, iy, g) <= 0 {
				continue
			}
			// The row's occupied cells the region spans are one run of
			// the sorted cell list.
			row := int32(iy * g)
			j, _ := slices.BinarySearch(cells, row+int32(ix0))
			for ; j < len(cells) && cells[j] <= row+int32(ix1); j++ {
				if spanOverlap(r.MinX, r.MaxX, p.Domain.MinX, cw, int(cells[j]-row), g) > 0 {
					load[j] += f[i].Weight
				}
			}
		}
	}
	for j, l := range load {
		peak[j] = Float32Up(l)
	}
	if cap(load) > maxPooledParts {
		return nil
	}
	return load
}

// maxPooledParts caps the lists a pooled scratch keeps: a footprint
// spanning most of a fine grid needs millions of entries once, and the
// pool must not hold on to that.
const maxPooledParts = 1 << 14

// cellSum is one cell's running sums of its contributions, and where
// the cell sits in the index.
type cellSum struct {
	cell         int32
	slot         int32
	mass, energy float64
}

// buildScratch is Build's per-cell sums, with the open-addressing index
// that finds a cell's entry and the list the cells are sorted in, and
// FillPeak's per-cell load. Build runs per query on the read path and
// per touched user on the write path, from many goroutines; the pool
// keeps all of it from being allocated afresh. A pooled scratch has no
// sums and an all-zero index.
type buildScratch struct {
	sums  []cellSum
	slots []int32 // 1 + index into sums, 0 for an empty slot
	shift uint8   // 32 - log2(len(slots))
	order []uint64
	load  []float64
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// minSlots is the index size a fresh scratch starts with: room for the
// few dozen cells of a typical footprint at DefaultG without a rehash.
const minSlots = 128

// cell returns the running sums of cell id c, adding a zero entry the
// first time c is seen. The index is kept at most half full, so probes
// are short; when it would not be, it doubles and every entry is
// re-inserted.
func (sc *buildScratch) cell(c int32) *cellSum {
	if 2*(len(sc.sums)+1) > len(sc.slots) {
		sc.grow()
	}
	mask := int32(len(sc.slots) - 1)
	h := sc.hash(c)
	for ; sc.slots[h] != 0; h = (h + 1) & mask {
		if s := &sc.sums[sc.slots[h]-1]; s.cell == c {
			return s
		}
	}
	sc.sums = append(sc.sums, cellSum{cell: c, slot: h})
	sc.slots[h] = int32(len(sc.sums))
	return &sc.sums[len(sc.sums)-1]
}

// hash is Fibonacci hashing: the top bits of the product, so that the
// cells of a footprint — runs of neighbouring ids, rows g apart — spread
// over the index.
func (sc *buildScratch) hash(c int32) int32 { return int32(uint32(c) * 0x9e3779b1 >> sc.shift) }

// grow doubles the index (or makes the first one) and re-inserts every
// entry.
func (sc *buildScratch) grow() {
	n := max(minSlots, 2*len(sc.slots))
	sc.slots, sc.shift = make([]int32, n), uint8(32-bits.TrailingZeros(uint(n)))
	mask := int32(n - 1)
	for i := range sc.sums {
		h := sc.hash(sc.sums[i].cell)
		for sc.slots[h] != 0 {
			h = (h + 1) & mask
		}
		sc.slots[h], sc.sums[i].slot = int32(i+1), h
	}
}

// reset empties the sums and zeroes the index through them — O(cells),
// whatever size the index grew to — or drops both when a huge footprint
// grew them past maxPooledParts.
func (sc *buildScratch) reset() {
	if cap(sc.sums) > maxPooledParts {
		sc.sums, sc.slots, sc.order = nil, nil, nil
		return
	}
	for _, s := range sc.sums {
		sc.slots[s.slot] = 0
	}
	sc.sums = sc.sums[:0]
}

// cellIndex maps a coordinate to its cell index along one axis,
// clamped into [0, g-1] so out-of-domain coordinates land in the
// nearest border cell.
func cellIndex(v, lo, cell float64, g int) int {
	i := int(math.Floor((v - lo) / cell))
	if i < 0 {
		return 0
	}
	if i >= g {
		return g - 1
	}
	return i
}

// spanOverlap returns the overlap length of the interval [a, b] with
// cell i along one axis, where cell 0 extends to -inf and cell g-1 to
// +inf (the border clamp that keeps totals exact for footprints
// escaping the domain).
func spanOverlap(a, b, lo, cell float64, i, g int) float64 {
	clo := lo + float64(i)*cell
	chi := clo + cell
	if i == 0 {
		clo = math.Inf(-1)
	}
	if i == g-1 {
		chi = math.Inf(1)
	}
	o := min(b, chi) - max(a, clo)
	if o < 0 {
		return 0
	}
	return o
}

// Dot returns Σ_c Root_a[c]·Root_b[c], the Cauchy–Schwarz term alone
// summed over the cells two sketches share: the loosest of the three
// bounds, kept as the oracle of the norm identity Dot(s, s) = ||f||².
// Allocation-free two-pointer merge over the sorted cell lists.
//
//geo:hotpath
//lint:ignore testonly the reference the bound tests check BoundDot, the gather and the walk against
func Dot(a, b *Sketch) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a.Cells) && j < len(b.Cells) {
		ca, cb := a.Cells[i], b.Cells[j]
		switch {
		case ca == cb:
			dot += a.Root[i] * b.Root[j]
			i++
			j++
		case ca < cb:
			i++
		default:
			j++
		}
	}
	return dot
}

// BoundDot returns Σ_c min(Root_a·Root_b, Mass_a·Peak_b, Peak_a·Mass_b)
// over the cells the two sketches share, in increasing cell id — the
// sketch upper bound on the numerator of Equation 1 (package comment)
// for two sketches built under the same Params, a the stored one and b
// the query. It is the reference kernel: an allocation-free two-pointer
// merge join that DotDense and Postings.Accumulate must match bit for
// bit, and what store.UserSketchDot runs.
//
//geo:hotpath
func BoundDot(a, b *Sketch) float64 {
	var dot float64
	i, j := 0, 0
	for i < len(a.Cells) && j < len(b.Cells) {
		ca, cb := a.Cells[i], b.Cells[j]
		switch {
		case ca == cb:
			dot += cellBound(a.Root[i], float64(a.Mass[i]), float64(a.Peak[i]), b.Root[j], float64(b.Mass[j]), float64(b.Peak[j]))
			i++
			j++
		case ca < cb:
			i++
		default:
			j++
		}
	}
	return dot
}

// cellBound is one cell's term of the bound: the smallest of the
// Cauchy–Schwarz product and the two Hölder products, stored side
// first, the float32 mass and peak widened exactly. Every kernel adds
// exactly this, so the sides agree bit for bit.
//
// The products are never negative, and non-negative float64s order as
// their bit patterns do, so the minimum is taken on the bits, where the
// compiler selects with conditional moves: which term wins changes from
// posting to posting without a pattern, and a branch mispredicted that
// often costs more than the three products. A NaN product — an
// overflowed +Inf mass or peak against a query value of +0 — has bits
// above +Inf's, so it never wins and can neither poison the sum nor
// shrink a term. The walk widens the query's values once per cell, not
// once per posting: widening into a register that still holds the
// previous posting's term would chain every posting to the one before.
//
//geo:hotpath
func cellBound(root, mass, peak, qRoot, qMass, qPeak float64) float64 {
	t := math.Float64bits(root * qRoot)
	if h := math.Float64bits(mass * qPeak); h < t {
		t = h
	}
	if h := math.Float64bits(peak * qMass); h < t {
		t = h
	}
	return math.Float64frombits(t)
}

// boundSlack is the relative headroom UpperBound adds to a sketch sum
// so that a bound computed in floating point never falls below a
// similarity computed in floating point. Both sides divide by the same
// float64 product of the two norms, so only the numerators matter:
//
//   - the sketch sum adds m non-negative cell terms, each a product of
//     inputs that are themselves sums of at most n contributions
//     (rounded up to float32, or square-rooted), so it is at least
//     (1 - (m+n+3)·u) times the exact bound, u = 2⁻⁵³;
//   - the join adds K non-negative products of three factors, so it is
//     at most (1 + (K+2)·u) times the exact numerator.
//
// The exact bound dominates the exact numerator, so a relative slack
// of (m+n+K+5)·u plus the two roundings of the division suffices; 1e-9
// covers m+n+K up to about nine million terms, far above a G = 1024
// raster (m ≤ 2²⁰) or any footprint pair the database holds, and moves
// no bound by more than a billionth. Without it a user's bound against
// its own footprint — or its duplicate's — falls an ulp below its
// similarity about as often as not, and the refinement loop prunes a
// tied user that LinearScan returns.
const boundSlack = 1e-9

// UpperBound turns a sketch sum and the two true norms (Equation 2,
// from the database) into the similarity upper bound: the sum widened
// by boundSlack, over normA·normB, clipped to [0, 1]. The clip at 1 is
// safe because the computed similarity is clipped there too. Either
// norm vanishing means similarity 0 by definition.
//
//geo:hotpath
func UpperBound(dot, normA, normB float64) float64 {
	denom := normA * normB
	if denom == 0 {
		return 0
	}
	b := dot * (1 + boundSlack) / denom
	if b > 1 {
		return 1
	}
	if b < 0 {
		return 0
	}
	return b
}
