package search

import (
	"geofootprint/internal/geom"
)

// This file adds incremental index maintenance on top of the dynamic
// FootprintDB operations (store.Upsert / AppendRoIs / Remove): after
// mutating user u in the database, call UpdateUser(u) on each live
// index instead of rebuilding it.
//
// Each index remembers exactly what it indexed per user, so an update
// removes the stale entries even though the database has already moved
// on.

// UpdateUser re-indexes user u (a dense database index): previously
// indexed regions are removed from the R-tree and the user's current
// regions inserted. Call it after store.Upsert, store.AppendRoIs or
// store.Remove affecting u.
func (ix *RoIIndex) UpdateUser(u int) {
	ix.growTo(u)
	for r, rect := range ix.indexed[u] {
		if !ix.tree.Delete(rect, packPayload(u, r)) {
			panic("search: RoI index out of sync with its own record")
		}
	}
	ix.indexed[u] = ix.indexed[u][:0]
	for r, reg := range ix.db.Footprints[u] {
		ix.tree.Insert(reg.Rect, packPayload(u, r))
		ix.indexed[u] = append(ix.indexed[u], reg.Rect)
	}
}

func (ix *RoIIndex) growTo(u int) {
	for len(ix.indexed) <= u {
		ix.indexed = append(ix.indexed, nil)
	}
}

// UpdateUser re-indexes user u's footprint MBR. Call it after a
// database mutation affecting u.
func (ix *UserCentricIndex) UpdateUser(u int) {
	ix.growTo(u)
	if old := ix.indexed[u]; !old.IsEmpty() {
		if !ix.tree.Delete(old, int64(u)) {
			panic("search: user-centric index out of sync with its own record")
		}
	}
	m := ix.db.MBRs[u]
	ix.indexed[u] = m
	if !m.IsEmpty() {
		ix.tree.Insert(m, int64(u))
	}
}

func (ix *UserCentricIndex) growTo(u int) {
	for len(ix.indexed) <= u {
		ix.indexed = append(ix.indexed, geom.EmptyRect())
	}
}
