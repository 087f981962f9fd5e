package store

import (
	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/par"
	"geofootprint/internal/sketch"
)

// This file manages the database's sketch layer: per-user grid
// fingerprints (internal/sketch) that let search rank candidates by a
// provable similarity upper bound before paying for an Algorithm 4
// refinement. The layer is opt-in — EnableSketches builds it — and
// once enabled every mutation path (Upsert, AppendRoIs, Remove) keeps
// it aligned with the rows, so indexes can rely on
// db.Sketches[u] being current whenever user u's row is.

// SketchesEnabled reports whether the sketch layer is active.
func (db *FootprintDB) SketchesEnabled() bool { return db.SketchParams.Valid() }

// EnableSketches (re)builds a sketch for every user at resolution g
// (DefaultG when g <= 0, at most sketch.MaxG) over the union of all
// footprint MBRs, on
// `workers` goroutines (GOMAXPROCS if <= 0). The domain is fixed at
// this call: footprints upserted later that escape it are clamped into
// border cells, which loosens their bounds but never invalidates them
// (see the sketch package proof), so re-enabling with a fresh domain
// is an optimisation, not a correctness requirement.
func (db *FootprintDB) EnableSketches(g, workers int) {
	// The transpose describes the layer being replaced; the region
	// columns stay valid for the similarity kernels.
	db.dropPostings()
	if g <= 0 {
		g = sketch.DefaultG
	}
	g = min(g, sketch.MaxG)
	union := geom.EmptyRect()
	for _, m := range db.MBRs {
		union = union.Extend(m)
	}
	db.SketchParams = sketch.Params{G: g, Domain: sketch.FitDomain(union)}
	db.Sketches = make([]sketch.Sketch, db.Len())

	par.For(db.Len(), workers, 16, func(_, lo, hi int) {
		var row core.Footprint
		for i := lo; i < hi; i++ {
			row = db.AppendRow(row[:0], i)
			db.Sketches[i] = sketch.Build(row, db.SketchParams)
		}
	})
}

// DisableSketches drops the sketch layer.
func (db *FootprintDB) DisableSketches() {
	db.dropPostings()
	db.SketchParams = sketch.Params{}
	db.Sketches = nil
}

// refreshSketch re-rasterises user i, whose row is now f, after a
// mutation. The Sketches slice is grown on demand so Upsert can extend
// the user space before calling it.
func (db *FootprintDB) refreshSketch(i int, f core.Footprint) {
	if !db.SketchesEnabled() {
		return
	}
	for len(db.Sketches) <= i {
		db.Sketches = append(db.Sketches, sketch.Sketch{})
	}
	db.Sketches[i] = sketch.Build(f, db.SketchParams)
}
