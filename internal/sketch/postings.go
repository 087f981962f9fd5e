package sketch

import (
	"fmt"
	"math"
)

// This file is the sketch layer stored cell-major. A query occupies a
// few dozen of the G² cells, so its bound against every user that
// shares a cell with it is a walk down those cells' posting lists —
// sequential memory, one term per posting — instead of a gather over
// each candidate's own cells (DotDense), which is random access into
// the stored blocks and also visits the cells the query does not
// occupy.
//
// Bit-identity with the merge join: a user's accumulator entry starts
// at +0 and receives cellBound(user's cell c, query's cell c) for
// exactly the cells c the two sketches share, in increasing c, because
// Accumulate visits the query's cells in increasing id and a user
// appears at most once per list. A posting holds the very values of the
// stored row (the float32 mass and peak are not converted on the way
// in), so that is BoundDot's sequence of additions, to which DotDense
// is already bit-equal (dense.go) — a bound read from the accumulator
// has the bits of the bound the gather computes, and the refinement
// order, the counts and the answers cannot move.

// Postings is the transpose of a database's sketches in CSR form over
// the G² cells: cell c's list is users[starts[c]:starts[c+1]], dense
// user indexes in increasing order, with the user's Entry in that cell
// beside each — 20 bytes per posting. Immutable once built.
type Postings struct {
	starts []int32 // G²+1
	users  []int32
	vals   []Entry
}

// BuildPostings transposes the sketches of users [0, users) of a layer
// at resolution g — row(u) is user u's, its cells increasing inside
// [0, g²) as Build makes them and the snapshot loaders check — in two
// passes of counting sort. The slices are allocated at their final size
// and the per-cell cursors are the starts array itself, so the
// transpose holds 20 bytes per stored cell plus 4·(g²+1) and nothing
// else while it is built. It returns nil when there are more stored
// cells than an int32 offset can address.
func BuildPostings(g, users int, row func(u int) *Sketch) *Postings {
	starts := make([]int32, g*g+1)
	total := 0
	for u := 0; u < users; u++ {
		cells := row(u).Cells
		total += len(cells)
		if total > math.MaxInt32 {
			return nil
		}
		for _, c := range cells {
			starts[c+1]++
		}
	}
	// starts[c+1] holds cell c's count; make it the cell's first
	// position. The fill below uses it as the cell's cursor, which leaves
	// it at the cell's end — the next cell's first position, which is
	// what starts[c+1] has to be.
	for c, sum := 1, int32(0); c < len(starts); c++ {
		starts[c], sum = sum, sum+starts[c]
	}
	p := &Postings{starts: starts, users: make([]int32, total), vals: make([]Entry, total)}
	for u := 0; u < users; u++ {
		s := row(u)
		cells := s.Cells
		root, mass, peak := s.Root[:len(cells)], s.Mass[:len(cells)], s.Peak[:len(cells)]
		for i, c := range cells {
			at := starts[c+1]
			starts[c+1]++
			p.users[at] = int32(u)
			p.vals[at] = Entry{Root: root[i], Mass: mass[i], Peak: peak[i]}
		}
	}
	return p
}

// Len returns the number of postings: the stored cells of all users.
func (p *Postings) Len() int { return len(p.users) }

// Walk returns how many postings Accumulate visits for q — the summed
// length of its cells' lists — so a caller can weigh the walk against a
// gather before doing either. It panics if q holds a cell outside the
// raster the postings were built for: a sketch built under other
// Params than the database's, a caller's bug (as Rasterize does).
func (p *Postings) Walk(q *Sketch) int {
	if n := len(q.Cells); n > 0 && (q.Cells[0] < 0 || int(q.Cells[n-1]) >= len(p.starts)-1) {
		panic(fmt.Sprintf("sketch: query sketch cells [%d, %d] outside a raster of %d cells", q.Cells[0], q.Cells[n-1], len(p.starts)-1))
	}
	walk := 0
	for _, c := range q.Cells {
		walk += int(p.starts[c+1] - p.starts[c])
	}
	return walk
}

// Accumulate adds BoundDot(user, q) into acc[user] for every user
// sharing a cell with q, term at a time: for each cell of q in
// increasing id, acc[u] += cellBound(u's entry, q's) down the cell's
// list. acc must be all +0 on entry and at least as long as the user
// count the postings were built over; entries of users sharing no cell
// stay +0. q's cells must lie inside the raster (Walk checks).
//
//geo:hotpath
func (p *Postings) Accumulate(q *Sketch, acc []float64) {
	for i, c := range q.Cells {
		lo, hi := p.starts[c], p.starts[c+1]
		users := p.users[lo:hi]
		vals := p.vals[lo:hi]
		vals = vals[:len(users)]
		qr, qm, qp := q.Root[i], float64(q.Mass[i]), float64(q.Peak[i])
		for j, u := range users {
			v := &vals[j]
			acc[u] += cellBound(v.Root, float64(v.Mass), float64(v.Peak), qr, qm, qp)
		}
	}
}

// Clear zeroes the entries Accumulate(q, acc) wrote, by the same walk,
// leaving acc all +0 again.
//
//geo:hotpath
func (p *Postings) Clear(q *Sketch, acc []float64) {
	for _, c := range q.Cells {
		for _, u := range p.users[p.starts[c]:p.starts[c+1]] {
			acc[u] = 0
		}
	}
}
