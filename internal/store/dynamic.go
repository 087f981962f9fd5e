package store

import (
	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/sketch"
)

// This file adds dynamic maintenance to FootprintDB. A deployment
// tracks users continuously: new customers appear, returning customers
// extend their footprints. Upsert, AppendRoIs and Remove keep the
// database current without recomputing untouched users. Indexes are
// immutable views: the epochs an EpochBuilder freezes share theirs with
// a base and read the users written since it around them (base.go).
//
// Dense user indexes are stable: Remove tombstones a user (empty
// footprint, zero norm) instead of compacting, so indexes held by
// search structures never dangle. A zero-norm user is invisible to
// every similarity computation and search method by construction
// (similarity against it is defined as 0).

// Upsert inserts or replaces the footprint of the user with the given
// external ID, recomputing its norm (Algorithm 2) and MBR, and returns
// the user's dense index. The footprint is sorted by Rect.MinX in place
// (the database invariant) and copied into the store.
func (db *FootprintDB) Upsert(id int, f core.Footprint) int {
	if !core.IsSortedByMinX(f) {
		core.SortByMinX(f)
	}
	i, ok := db.IndexOf(id)
	if !ok {
		i = len(db.IDs)
		db.IDs = append(db.IDs, id)
		db.Norms = append(db.Norms, 0)
		db.MBRs = append(db.MBRs, geom.EmptyRect())
		if db.byID != nil {
			db.byID[id] = i
		}
	}
	db.setRow(i, f)
	return i
}

// setRow is the one write of a row: it stores f, MinX-sorted, as user
// i's row (i one past the last row appends it), with its norm, MBR and
// sketch.
func (db *FootprintDB) setRow(i int, f core.Footprint) {
	var sks []sketch.Sketch
	if db.SketchesEnabled() {
		sks = []sketch.Sketch{sketch.Build(f, db.SketchParams)}
	}
	db.putRow(i, f, sks)
	db.wrote()
	db.Norms[i] = core.Norm(f)
	db.MBRs[i] = f.MBR()
}

// AppendRoIs extends a user's footprint with newly extracted regions
// (e.g. from the streaming extractor after a session closes), creating
// the user if needed, and refreshes norm and MBR. It returns the
// user's dense index.
func (db *FootprintDB) AppendRoIs(id int, regions []core.Region) int {
	i, ok := db.IndexOf(id)
	if !ok {
		return db.Upsert(id, append(core.Footprint(nil), regions...))
	}
	f := append(db.AppendRow(make(core.Footprint, 0, db.RowLen(i)+len(regions)), i), regions...)
	core.SortByMinX(f)
	db.setRow(i, f)
	return i
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
	db.setRow(i, nil)
	return true
}
