// Package sketch implements a compact grid fingerprint of a
// geo-footprint — the filter half of a filter-and-refine layer over the
// Section 6 searches (in the spirit of Geodabs' trajectory fingerprints
// and SEAL's bounded filtering).
//
// A sketch rasterises the footprint's frequency function f onto a fixed
// G×G grid over a shared domain. Cell c stores two numbers:
//
//   - Mass[c] = ∫_c f        — the frequency mass inside the cell;
//   - Root[c] = sqrt(∫_c f²) — the cell's contribution to the norm,
//     so that Σ_c Root[c]² = ||f||² (Equation 2) exactly.
//
// Both are computed exactly from the footprint's disjoint-region
// decomposition (the by-product of Algorithm 2), so no overlap is
// double-counted. Cells on the domain boundary extend to infinity:
// mass outside the domain is clamped into the nearest border cell,
// which keeps the totals — and the bound below — exact for footprints
// that outgrow the domain.
//
// The point of the sketch is the Cauchy–Schwarz upper bound. For two
// footprints x and y sharing the same Params, every cell obeys
//
//	∫_c f_x·f_y  ≤  sqrt(∫_c f_x²) · sqrt(∫_c f_y²)  =  Root_x[c]·Root_y[c]
//
// (Cauchy–Schwarz on the cell, whose border-extended spans partition
// the plane). Summing over cells bounds the numerator of Equation 1 by
// the plain dot product Dot(x, y) = Σ_c Root_x[c]·Root_y[c], and a
// second Cauchy–Schwarz over the cell axis bounds Dot(x, y) itself by
// ||x||·||y|| — so Dot(x, y) / (||x||·||y||) is a provable upper bound
// on the similarity that never exceeds 1 (up to round-off, which
// UpperBound clips).
//
// Sketches are sparse: footprints cover a tiny fraction of the domain,
// so only occupied cells are stored, sorted by linear cell id. Dot is
// an allocation-free two-pointer merge join — the same shape as the
// Algorithm 4 kernel, but over O(occupied cells) instead of O(regions²)
// — and DotDense (dense.go) the same sum as a gather against a query
// scattered once into a dense table. Postings (postings.go) is the
// whole layer transposed cell-major, so that one query's dot products
// against every user sharing a cell with it are a walk down the posting
// lists of its own few dozen cells; a search bounds its candidates by
// the walk or by the gather, whichever visits less (the same bits
// either way), which is what makes sketch scoring cheap enough to run
// for every candidate of every search before any Algorithm 4
// refinement.
package sketch

import (
	"fmt"
	"math"
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
// sizes an allocation on the query path: at MaxG the table is 8 MiB.
// store.EnableSketches clamps to it and colstore.Open refuses a file
// that claims more, so a corrupt manifest cannot turn into a G²-sized
// allocation.
const MaxG = 1024

// Params fixes the raster every sketch of a database shares: the
// resolution G and the domain rectangle the grid tiles. Two sketches
// are comparable (Dot is meaningful) only under identical Params.
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
// increasing linear cell id (y*G + x), with their mass and norm
// contributions. The zero value is the sketch of an empty footprint.
type Sketch struct {
	Cells []int32
	Mass  []float64
	Root  []float64
}

// Len returns the number of occupied cells.
func (s *Sketch) Len() int { return len(s.Cells) }

// MassTotal returns Σ_c Mass[c] = ∫ f, the footprint's total frequency
// mass (Σ |R|·w over its regions).
func (s *Sketch) MassTotal() float64 {
	var t float64
	for _, m := range s.Mass {
		t += m
	}
	return t
}

// NormSquared returns Σ_c Root[c]² = ||f||², the squared Equation 2
// norm recovered from the sketch.
func (s *Sketch) NormSquared() float64 {
	var t float64
	for _, r := range s.Root {
		t += r * r
	}
	return t
}

// Build rasterises the footprint under p. The footprint's disjoint
// regions (Algorithm 2's by-product) are each split across the grid
// cells they overlap; a disjoint region of weight w contributes
// w·|d∩c| to Mass[c] and w²·|d∩c| to Root[c]² — exact, because
// disjoint regions do not overlap. Build panics if p is not Valid.
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

	// One contribution per (disjoint region, cell) pair, in region
	// order; sorting by (cell, seq) then groups each cell's
	// contributions in that same order, so the per-cell sums add up in
	// exactly the sequence a per-cell accumulator would have seen.
	sc := buildPool.Get().(*buildScratch)
	parts := sc.parts[:0]
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
				parts = append(parts, cellPart{
					cell: int32(iy*g + ix), seq: len(parts),
					mass: w * a, energy: w * w * a,
				})
			}
		}
	}
	slices.SortFunc(parts, func(a, b cellPart) int {
		if a.cell != b.cell {
			return int(a.cell) - int(b.cell)
		}
		return a.seq - b.seq
	})
	cells := 0
	for i := range parts {
		if i == 0 || parts[i].cell != parts[i-1].cell {
			cells++
		}
	}
	s := Sketch{
		Cells: make([]int32, 0, cells),
		Mass:  make([]float64, 0, cells),
		Root:  make([]float64, 0, cells),
	}
	for i := 0; i < len(parts); {
		cell := parts[i].cell
		var mass, energy float64
		for ; i < len(parts) && parts[i].cell == cell; i++ {
			mass += parts[i].mass
			energy += parts[i].energy
		}
		s.Cells = append(s.Cells, cell)
		s.Mass = append(s.Mass, mass)
		s.Root = append(s.Root, math.Sqrt(energy))
	}
	if cap(parts) <= maxPooledParts {
		sc.parts = parts
	}
	buildPool.Put(sc)
	return s
}

// maxPooledParts caps the contribution list a pooled scratch keeps: a
// footprint spanning most of a fine grid needs millions of entries
// once, and the pool must not hold on to that.
const maxPooledParts = 1 << 14

// cellPart is one disjoint region's contribution to one cell; seq is
// its position in generation order, the tie-break that makes the sort
// key unique (so an unstable sort still groups deterministically).
type cellPart struct {
	cell         int32
	seq          int
	mass, energy float64
}

// buildScratch is Build's reusable contribution list. Build runs per
// query on the read path and per touched user on the write path, from
// many goroutines; the pool keeps both from allocating it afresh.
type buildScratch struct{ parts []cellPart }

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

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

// Dot returns Σ_c Root_a[c]·Root_b[c], the sketch upper bound on the
// numerator of Equation 1 for two sketches built under the same
// Params. It is an allocation-free two-pointer merge over the sorted
// occupied-cell lists — the hot kernel of the filter step, pinned at
// 0 allocs/op by a regression test.
//
//geo:hotpath
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

// UpperBound turns a sketch dot product and the two true norms
// (Equation 2, from the database) into the similarity upper bound:
// dot/(normA·normB), clipped to [0, 1] — by Cauchy–Schwarz the exact
// value never exceeds 1, so the clip only absorbs round-off. Either
// norm vanishing means similarity 0 by definition.
//
//geo:hotpath
func UpperBound(dot, normA, normB float64) float64 {
	denom := normA * normB
	if denom == 0 {
		return 0
	}
	b := dot / denom
	if b > 1 {
		return 1
	}
	if b < 0 {
		return 0
	}
	return b
}
