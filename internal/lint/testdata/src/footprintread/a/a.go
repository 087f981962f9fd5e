// Package a is the footprintread fixture: reads of
// store.FootprintDB.Footprints and store.FootprintDB.Norms from outside
// internal/store are flagged; the row and norm accessors, IDs and
// writes (sortedfootprint's to report) are not.
package a

import (
	"geofootprint/internal/core"
	"geofootprint/internal/store"
)

// Direct reads see nothing on an opened database.
func Direct(db *store.FootprintDB) int {
	n := 0
	for _, f := range db.Footprints { // want `read of FootprintDB.Footprints`
		n += len(f)
	}
	for i := range db.Footprints { // want `read of FootprintDB.Footprints`
		n += len(db.Footprints[i]) // want `read of FootprintDB.Footprints`
	}
	all := db.Footprints // want `read of FootprintDB.Footprints`
	return n + len(all)
}

// Norms reads see nothing on a written database.
func Norms(db *store.FootprintDB) float64 {
	total := db.Norms[0] // want `read of FootprintDB.Norms outside its defining package: a written database keeps it nil; use Norm`
	for _, n := range db.Norms { // want `read of FootprintDB.Norms`
		total += n
	}
	return total + float64(len(db.Norms)) // want `read of FootprintDB.Norms`
}

// PassedOn hands the field to a callee: still a read.
func PassedOn(db *store.FootprintDB) core.Footprint {
	return first(db.Footprints) // want `read of FootprintDB.Footprints`
}

func first(fps []core.Footprint) core.Footprint { return fps[0] }

// Accessors serve both backings: nothing to flag.
func Accessors(db *store.FootprintDB) int {
	var buf core.Footprint
	n := 0
	for u := range db.IDs {
		buf = db.AppendRow(buf[:0], u)
		n += len(buf) + db.RowLen(u) + len(db.Row(u))
		if db.Norm(u) > 0 && !db.MBR(u).IsEmpty() {
			n++
		}
	}
	return n
}

// Writes are sortedfootprint's findings, not this analyzer's.
func Writes(db *store.FootprintDB, f core.Footprint) {
	db.Footprints[0] = f
	db.Footprints = append(db.Footprints, f)
	db.Norms[0] = 1
}

// Suppressed: a justified ignore is honoured.
func Suppressed(db *store.FootprintDB) int {
	//lint:ignore footprintread a database this function built in memory itself
	return len(db.Footprints)
}
