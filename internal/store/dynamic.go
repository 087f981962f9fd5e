package store

import (
	"fmt"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
)

// This file adds dynamic maintenance to FootprintDB. A deployment
// tracks users continuously: new customers appear, returning customers
// extend their footprints. Upsert, AppendRoIs and Remove keep the
// database current without recomputing untouched users; indexes are
// immutable views, rebuilt over the mutated database (the serving
// plane does so once per published epoch).
//
// Dense user indexes are stable: Remove tombstones a user (empty
// footprint, zero norm) instead of compacting, so indexes held by
// search structures never dangle. A zero-norm user is invisible to
// every similarity computation and search method by construction
// (similarity against it is defined as 0).

// Upsert inserts or replaces the footprint of the user with the given
// external ID, recomputing its norm (Algorithm 2) and MBR, and returns
// the user's dense index. The footprint is stored as given and sorted
// by Rect.MinX in place (the database invariant); pass a copy if the
// caller retains it.
func (db *FootprintDB) Upsert(id int, f core.Footprint) int {
	db.detachCols()
	if !core.IsSortedByMinX(f) {
		core.SortByMinX(f)
	}
	i, ok := db.IndexOf(id)
	if !ok {
		i = len(db.IDs)
		db.IDs = append(db.IDs, id)
		db.Footprints = append(db.Footprints, nil)
		db.Norms = append(db.Norms, 0)
		db.MBRs = append(db.MBRs, geom.EmptyRect())
		if db.byID != nil {
			db.byID[id] = i
		}
	}
	db.Footprints[i] = f
	db.Norms[i] = core.Norm(f)
	db.MBRs[i] = f.MBR()
	db.refreshSketch(i)
	return i
}

// AppendRoIs extends a user's footprint with newly extracted regions
// (e.g. from the streaming extractor after a session closes), creating
// the user if needed, and refreshes norm and MBR. It returns the
// user's dense index.
func (db *FootprintDB) AppendRoIs(id int, regions []core.Region) int {
	db.detachCols()
	i, ok := db.IndexOf(id)
	if !ok {
		return db.Upsert(id, append(core.Footprint(nil), regions...))
	}
	f := append(db.Footprints[i], regions...)
	core.SortByMinX(f)
	db.Footprints[i] = f
	db.Norms[i] = core.Norm(f)
	db.MBRs[i] = f.MBR()
	db.refreshSketch(i)
	return i
}

// Compact removes tombstoned users (empty footprints) by rebuilding
// the dense index space, and returns the number removed. External
// structures holding dense indexes (search indexes, kNN graphs) are
// invalidated and must be rebuilt; long-running services call this
// during maintenance windows after many Removes.
func (db *FootprintDB) Compact() int {
	db.detachCols()
	sketches := db.SketchesEnabled()
	keep := 0
	for i := range db.IDs {
		if len(db.Footprints[i]) == 0 {
			continue
		}
		db.IDs[keep] = db.IDs[i]
		db.Footprints[keep] = db.Footprints[i]
		db.Norms[keep] = db.Norms[i]
		db.MBRs[keep] = db.MBRs[i]
		if sketches {
			db.Sketches[keep] = db.Sketches[i]
		}
		keep++
	}
	removed := len(db.IDs) - keep
	db.IDs = db.IDs[:keep]
	db.Footprints = db.Footprints[:keep]
	db.Norms = db.Norms[:keep]
	db.MBRs = db.MBRs[:keep]
	if sketches {
		db.Sketches = db.Sketches[:keep]
	}
	db.byID = nil // force rebuild on next IndexOf
	return removed
}

// Merge appends every user of other into db, recomputing as little as
// possible: norms and MBRs are copied. User IDs must be disjoint; a
// duplicate ID aborts with an error before any change is applied. It
// is the way to combine evaluation parts (e.g. Part A + Part B) or
// shard extraction across machines.
//
// Incoming footprints are sorted by Rect.MinX in place when they are
// not already (the database invariant; a hand-built `other` can
// violate it — databases produced by this package never do, making the
// check O(n)). When db's sketch layer is enabled, sketches for the
// incoming users are copied if other shares db's exact sketch
// parameters and rebuilt under db's parameters otherwise.
func (db *FootprintDB) Merge(other *FootprintDB) error {
	for _, id := range other.IDs {
		if _, exists := db.IndexOf(id); exists {
			return fmt.Errorf("store: merge would duplicate user ID %d", id)
		}
	}
	incoming := other.Footprints
	if other.colsOnly() {
		// An opened database's rows are sorted (validated at open);
		// they are copied out, and other stays column-only.
		incoming = other.cols.footprints()
	}
	for _, f := range incoming {
		if !core.IsSortedByMinX(f) {
			core.SortByMinX(f)
		}
	}
	db.detachCols()
	base := len(db.IDs)
	db.IDs = append(db.IDs, other.IDs...)
	db.Footprints = append(db.Footprints, incoming...)
	db.Norms = append(db.Norms, other.Norms...)
	db.MBRs = append(db.MBRs, other.MBRs...)
	if db.SketchesEnabled() {
		if other.SketchParams == db.SketchParams && len(other.Sketches) == len(other.IDs) {
			db.Sketches = append(db.Sketches, other.Sketches...)
		} else {
			for i := range other.IDs {
				db.refreshSketch(base + i)
			}
		}
	}
	if db.byID != nil {
		for i, id := range other.IDs {
			db.byID[id] = base + i
		}
	}
	return nil
}

// Remove tombstones the user with the given external ID: the footprint
// empties and the norm drops to zero, making the user unreachable by
// similarity search while keeping all dense indexes stable. It reports
// whether the user existed.
func (db *FootprintDB) Remove(id int) bool {
	i, ok := db.IndexOf(id)
	if !ok {
		return false
	}
	db.detachCols()
	db.Footprints[i] = nil
	db.Norms[i] = 0
	db.MBRs[i] = geom.EmptyRect()
	db.refreshSketch(i)
	return true
}
