package sketch

import (
	"fmt"
	"sync"
)

// This file is the bound step's gather kernel. A query is bounded
// against thousands of stored sketches, so instead of merge-joining two
// sparse cell lists per candidate (BoundDot) the query's columns are
// scattered once into a dense G×G table and every stored sketch is
// summed against it with a gather: no compare-and-advance, one lookup
// per stored cell.
//
// Bit-identity with the merge join: both walk the stored cells in
// increasing id and add cellBound(stored, query) for the cells the two
// sketches share, in the same order. It skips the cells the query does
// not occupy, and any cell where the query's root is +0: there the
// Cauchy–Schwarz product is +0 (stored roots are finite), so
// cellBound's term is +0, the least a term can be, and x + 0 == x bit
// for bit for every partial sum x (which is never -0: it starts at +0
// and only grows). So the bounds, the refinement order and the
// refinement counts do not change.

// Entry is one sketch cell's three values side by side: what a posting
// carries beside its user and what a raster holds per cell — 16 bytes.
type Entry struct {
	Root       float64
	Mass, Peak float32
}

// Raster is a query sketch scattered into a dense table: Table()[c] is
// the query's Entry in cell c, all zero where the query is empty.
// Rasters are pooled; Release returns one.
type Raster struct {
	table []Entry
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
		r.table = make([]Entry, g*g)
	}
	r.cells = append(r.cells[:0], s.Cells...)
	for i, c := range s.Cells {
		r.table[c] = Entry{Root: s.Root[i], Mass: s.Mass[i], Peak: s.Peak[i]}
	}
	return r
}

// Table returns the dense G×G table (read-only).
func (r *Raster) Table() []Entry { return r.table }

// Release zeroes the cells Rasterize set — O(query cells), not O(G²) —
// and returns the raster to the pool. r must not be used afterwards.
func (r *Raster) Release() {
	for _, c := range r.cells {
		r.table[c] = Entry{}
	}
	rasterPool.Put(r)
}

// DotDense is BoundDot with the query given as a dense table (a
// Raster's): Σ_i cellBound(s's cell i, dense[s.Cells[i]]). Bit-for-bit
// equal to BoundDot on the same pair of sketches (see the file
// comment); it skips the cells whose query root is +0, whose term is
// +0, rather than pay for three products and the stored mass and peak
// to learn so. Every cell must lie inside the table — guaranteed for
// sketches Build made under the table's resolution and checked when a
// snapshot is opened.
//
//geo:hotpath
func DotDense(s *Sketch, dense []Entry) float64 {
	cells := s.Cells
	root, mass, peak := s.Root[:len(cells)], s.Mass[:len(cells)], s.Peak[:len(cells)]
	var dot float64
	for i, c := range cells {
		q := &dense[c]
		if q.Root == 0 {
			continue
		}
		dot += cellBound(root[i], float64(mass[i]), float64(peak[i]), q.Root, float64(q.Mass), float64(q.Peak))
	}
	return dot
}
