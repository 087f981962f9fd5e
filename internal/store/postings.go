package store

import "geofootprint/internal/sketch"

// This file memoises the sketch layer's cell-major transpose
// (sketch.Postings) on the database it was built from, and decides when
// a database is worth transposing at all.
//
// Building the transpose moves every stored cell once; bounding a query
// by gather visits the stored cells of its candidates. A long-lived
// database — a loaded snapshot, the last epoch after ingest stops —
// answers thousands of queries and the transpose pays for itself within
// a few dozen; an epoch published in the middle of an ingest burst
// answers a handful before it is superseded and must not pay for one.
// Nobody knows an epoch's lifetime in advance, so this is ski rental:
// keep gathering until the gathers already served have cost a fixed
// multiple of the build, then build, inline, in the query that crossed
// the line. Both sides of that comparison are proportional to the same
// mean cells per user, which cancels — the line is a number of
// candidates: postingsAfter × the user count.

// postingsAfter is the ski-rental multiple. On the 13 900-user ledger
// corpus (internal/search's BenchmarkBoundStep and
// BenchmarkPostingsBuild, EXPERIMENTS.md), with 20-byte postings and the
// three-term bound, the transpose takes 4.2–5.2 ms to build and saves a
// query ≈ 285–340 µs of a ≈ 365–430 µs gather over ≈ 2 700 candidates:
// the gathers' excess over the walk adds up to one build after ≈ 15
// queries, ≈ 41 000 candidates, 3.0 × the user count. Both costs scale with the stored cells, so the multiple
// carries to other corpus sizes; building at that point costs an epoch,
// whatever its lifetime turns out to be, at most twice what the better
// choice would have.
const postingsAfter = 3

// SketchPostings returns the database's cell-major sketch transpose
// when it has one. When it has none the call is charged as a gather
// over `cands` candidates, and the call that takes the running total
// across postingsAfter × Len() builds the transpose before returning
// it; every other caller gets nil meanwhile and gathers. Only one call
// ever sees the total cross the line, so a database builds at most one
// transpose between mutations.
//
// Safe for concurrent use on a database nobody is mutating (a published
// epoch, whose pin the calling query holds for the duration — the
// build reads the stored cell blocks, which on a mapped snapshot are
// the mapping). The sketch layer must be enabled.
func (db *FootprintDB) SketchPostings(cands int) *sketch.Postings {
	if p := db.postings.Load(); p != nil {
		return p
	}
	line := postingsAfter * int64(db.Len())
	after := db.gathered.Add(int64(cands))
	if after < line || after-int64(cands) >= line {
		return nil
	}
	p := sketch.BuildPostings(db.SketchParams.G, db.Sketches)
	if p != nil {
		db.postings.Store(p)
	}
	return p
}

// dropPostings forgets the transpose and the gathers charged towards
// it. Every write of the rows (through wrote) or of the sketch layer (EnableSketches, DisableSketches) runs it: the
// transpose describes rows, a resolution and a user count that may no
// longer exist. Published epochs are separate structs (Freeze) and keep
// theirs.
func (db *FootprintDB) dropPostings() {
	db.postings.Store(nil)
	db.gathered.Store(0)
}
