// Package a is the sortedfootprint fixture: direct writes to
// store.FootprintDB's parallel slices from outside internal/store are
// flagged; reads and API-mediated mutation are not.
package a

import (
	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/store"
)

// Clobber mutates the parallel slices directly: every write bypasses
// the MinX-sorted/aligned-slices invariant.
func Clobber(db *store.FootprintDB, f core.Footprint) {
	db.Footprints[0] = f                       // want `direct write to FootprintDB.Footprints`
	db.Footprints = append(db.Footprints, f)   // want `direct write to FootprintDB.Footprints` `direct write to FootprintDB.Footprints`
	db.Footprints[0][0].Weight = 2             // want `direct write to FootprintDB.Footprints`
	db.Norms[0] = 1                            // want `direct write to FootprintDB.Norms`
	db.Norms[0]++                              // want `direct write to FootprintDB.Norms`
	db.MBRs[0] = geom.Rect{}                   // want `direct write to FootprintDB.MBRs`
	db.IDs = nil                               // want `direct write to FootprintDB.IDs`
	db.Sketch(0).Cells[0] = 1                  // want `direct write to FootprintDB.Sketch`
	db.Sketch(0).Root = nil                    // want `direct write to FootprintDB.Sketch`
}

// Read-only access and value copies are fine.
func ReadOnly(db *store.FootprintDB) (float64, int) {
	var total float64
	for i := range db.Footprints {
		total += db.Norms[i]
	}
	f := db.Footprints[0] // copying the slice header for reading is fine
	return total + float64(db.Sketch(0).Root[0]), len(f)
}

// Rebuild goes through the store API: nothing to flag.
func Rebuild(name string, ids []int, fps []core.Footprint) (*store.FootprintDB, error) {
	return store.FromFootprints(name, ids, fps)
}

// Suppressed: a justified ignore is honoured (e.g. a test harness
// deliberately corrupting a database to exercise strictsort).
func Suppressed(db *store.FootprintDB) {
	//lint:ignore sortedfootprint deliberately desorting to exercise the strictsort panic path
	db.Footprints[0][0].Rect.MinX = 1e18
}
