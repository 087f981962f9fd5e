package store

import (
	"encoding/gob"
	"io"
)

// encodeGobForTest writes db in the legacy gob wire form Load and
// DecodeFrom still read, as the gob writer of earlier releases did:
// sketch masses widened to float64.
func encodeGobForTest(w io.Writer, db *FootprintDB) error {
	var sketches []sketchWire
	if db.Sketches != nil {
		sketches = make([]sketchWire, len(db.Sketches))
		for u, sk := range db.Sketches {
			mass := make([]float64, len(sk.Mass))
			for i, m := range sk.Mass {
				mass[i] = float64(m)
			}
			sketches[u] = sketchWire{Cells: sk.Cells, Mass: mass, Peak: sk.Peak, Root: sk.Root}
		}
	}
	return gob.NewEncoder(w).Encode(&dbWire{db.Name, db.IDs, db.Footprints, db.Norms, db.MBRs, db.SketchParams, sketches})
}
