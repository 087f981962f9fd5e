package search

import (
	"context"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/grid"
	"geofootprint/internal/store"
)

// GridIndex is the uniform-grid alternative to the Section 6.1 RoI
// R-tree: every RoI of every footprint hashes into the grid cells it
// overlaps, and queries accumulate Equation 1's numerator exactly as
// the iterative R-tree search does. It exists as an ablation baseline
// — same results, different index substrate.
type GridIndex struct {
	db *store.FootprintDB
	g  *grid.Index
}

// NewGridIndex indexes every region of every footprint on an n×n grid
// over the given world rectangle (use the unit square for normalized
// data; resolution 64 is a reasonable default for paper-sized RoIs).
func NewGridIndex(db *store.FootprintDB, world geom.Rect, n int) (*GridIndex, error) {
	g, err := grid.New(world, n)
	if err != nil {
		return nil, err
	}
	ix := &GridIndex{db: db, g: g}
	var f core.Footprint
	for u := range db.IDs {
		f = db.AppendRow(f[:0], u)
		for r, reg := range f {
			g.Insert(reg.Rect, packPayload(u, r))
		}
	}
	return ix, nil
}

// Grid exposes the underlying grid (for stats).
func (ix *GridIndex) Grid() *grid.Index { return ix.g }

// Nominate implements Source exactly as the iterative R-tree search
// does, over the grid. Like grid.Index.Search it is not safe for
// concurrent use.
//
//geo:cancellable
func (ix *GridIndex) Nominate(ctx context.Context, q core.Footprint, buf []int) ([]int, error) {
	acc := acquireAccumulator(ix.db.Len())
	var visits int
	var cerr error
	for i := range q {
		qr := &q[i]
		ix.g.Search(qr.Rect, func(e grid.Entry) bool {
			if visits&(cancelStride-1) == 0 {
				if cerr = ctx.Err(); cerr != nil {
					return false
				}
			}
			visits++
			accumulate(ix.db, acc, e.Rect, e.Data, qr)
			return true
		})
		if cerr != nil {
			acc.drain(buf)
			return nil, cerr
		}
	}
	return acc.drain(buf), nil
}

// TopK implements Searcher.
func (ix *GridIndex) TopK(q core.Footprint, k int) []Result {
	return serial(ix.db, ix, q, k)
}
