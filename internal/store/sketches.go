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
// once enabled every mutation path (Upsert, AppendRoIs, Remove)
// rewrites the row's sketch in the chunk that holds the row, so
// db.Sketch(u) is current whenever user u's row is.

// SketchesEnabled reports whether the sketch layer is active.
func (db *FootprintDB) SketchesEnabled() bool { return db.SketchParams.Valid() }

// EnableSketches (re)builds a sketch for every user at resolution g
// (DefaultG when g <= 0, at most sketch.MaxG) over the union of all
// footprint MBRs, on
// `workers` goroutines (GOMAXPROCS if <= 0). The domain is fixed at
// this call: footprints upserted later that escape it are clamped into
// border cells, which loosens their bounds but never invalidates them
// (see the sketch package proof), so re-enabling with a fresh domain
// is an optimisation, not a correctness requirement. Every chunk is
// replaced by a copy that shares its regions and holds the new
// sketches, so chunks an epoch was frozen with keep theirs.
func (db *FootprintDB) EnableSketches(g, workers int) {
	// The base's transpose describes the layer being replaced; the
	// region columns stay valid for the similarity kernels.
	db.dropBase()
	if g <= 0 {
		g = sketch.DefaultG
	}
	g = min(g, sketch.MaxG)
	union := geom.EmptyRect()
	for _, m := range db.MBRs {
		union = union.Extend(m)
	}
	db.buildSketches(sketch.Params{G: g, Domain: sketch.FitDomain(union)}, workers)
}

// buildSketches builds every user's sketch under p into fresh copies of
// the chunks, on `workers` goroutines.
func (db *FootprintDB) buildSketches(p sketch.Params, workers int) {
	db.SketchParams = p
	all := make([]sketch.Sketch, db.Len())
	par.For(len(db.chunks), workers, 1, func(_, lo, hi int) {
		var row core.Footprint
		for ci := lo; ci < hi; ci++ {
			old := db.chunks[ci]
			first := ci * chunkUsers
			sks := all[first : first+old.users() : first+old.users()]
			for k := range sks {
				row = db.AppendRow(row[:0], first+k)
				sks[k] = sketch.Build(row, p)
			}
			db.chunks[ci] = &chunk{regions: old.regions, starts: old.starts, sketches: sks}
		}
	})
}

// DisableSketches drops the sketch layer.
func (db *FootprintDB) DisableSketches() {
	db.dropBase()
	db.SketchParams = sketch.Params{}
	for ci, old := range db.chunks {
		db.chunks[ci] = &chunk{regions: old.regions, starts: old.starts}
	}
}
