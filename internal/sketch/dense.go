package sketch

import (
	"fmt"
	"sync"
)

// This file is the bound step's kernel. A query is bounded against
// thousands of stored sketches, so instead of merge-joining two sparse
// cell lists per candidate (Dot, DotFlat) the query's Root column is
// scattered once into a dense G×G table and every stored sketch is
// dotted against it with a gather: no compare-and-advance, one
// multiply-add per stored cell.
//
// Bit-identity with the merge join: both walk the stored cells in
// increasing id and add Root_a[c]·Root_q[c] for the cells the two
// sketches share, in the same order. The gather additionally adds
// Root_a[c]·0 for the stored cells the query does not occupy — a +0,
// because Build's roots are square roots of non-negative sums — and
// x + 0 == x bit for bit for every partial sum x (which is never -0:
// it starts at +0 and only grows). So the bounds, the refinement order
// and the refinement counts do not change.

// Raster is a query sketch scattered into a dense table: Table()[c] is
// the query's Root in cell c, 0 where the query is empty. Rasters are
// pooled; Release returns one.
type Raster struct {
	table []float64
	cells []int32 // the cells set, so Release clears only those
}

var rasterPool = sync.Pool{New: func() any { return new(Raster) }}

// Rasterize scatters s, a sketch of resolution g, into a pooled dense
// table. It panics if s holds a cell outside [0, g²): the sketch was
// built under other Params than the database's, a caller's bug.
func Rasterize(s *Sketch, g int) *Raster {
	if n := len(s.Cells); n > 0 && (s.Cells[0] < 0 || int(s.Cells[n-1]) >= g*g) {
		panic(fmt.Sprintf("sketch: query sketch cells [%d, %d] outside a %d×%d raster", s.Cells[0], s.Cells[n-1], g, g))
	}
	r := rasterPool.Get().(*Raster)
	if len(r.table) != g*g {
		r.table = make([]float64, g*g)
	}
	r.cells = append(r.cells[:0], s.Cells...)
	for i, c := range s.Cells {
		r.table[c] = s.Root[i]
	}
	return r
}

// Table returns the dense G×G Root table (read-only).
func (r *Raster) Table() []float64 { return r.table }

// Release zeroes the cells Rasterize set — O(query cells), not O(G²) —
// and returns the raster to the pool. r must not be used afterwards.
func (r *Raster) Release() {
	for _, c := range r.cells {
		r.table[c] = 0
	}
	rasterPool.Put(r)
}

// DotDense is Dot with the second sketch given as a dense table (a
// Raster's): Σ_i root[i]·dense[cells[i]]. Bit-for-bit equal to Dot and
// DotFlat on the same pair of sketches (see the file comment). Every
// cell must lie inside the table — guaranteed for sketches Build made
// under the table's resolution and checked when a snapshot is opened.
//
//geo:hotpath
func DotDense(cells []int32, root []float64, dense []float64) float64 {
	root = root[:len(cells)]
	var dot float64
	for i, c := range cells {
		dot += root[i] * dense[c]
	}
	return dot
}

// InRange reports whether s is structurally sound for a raster of
// resolution g: parallel columns of equal length and cells strictly
// increasing inside [0, g²). Loaders of formats that carry no
// structural check of their own (gob) run it per sketch, because
// DotDense indexes a table by cell id.
func (s *Sketch) InRange(g int) bool {
	if len(s.Mass) != len(s.Cells) || len(s.Root) != len(s.Cells) {
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
