package store

import "geofootprint/internal/sketch"

// This file memoises the sketch layer's cell-major transpose
// (sketch.Postings) on the base it was built for (base.go), and decides
// when a base is worth transposing at all.
//
// Building the transpose moves every stored cell once; bounding a query
// by gather visits the stored cells of its candidates. A long-lived
// base — a loaded snapshot, the epochs of an ingest that writes few
// users — answers thousands of queries and the transpose pays for
// itself within a few dozen; a base superseded after a handful must not
// pay for one. Nobody knows a base's lifetime in advance, so this is
// ski rental: keep gathering until the gathers already served, by every
// epoch of the base, have cost a fixed multiple of the build, then
// build, inline, in the query that crossed the line. Both sides of that
// comparison are proportional to the same mean cells per user, which
// cancels — the line is a number of candidates: postingsAfter × the
// base's user count.

// postingsAfter is the ski-rental multiple. On the 13 900-user ledger
// corpus (internal/search's BenchmarkBoundStep and
// BenchmarkPostingsBuild, EXPERIMENTS.md), with 20-byte postings and the
// three-term bound, the transpose takes 4.2–5.2 ms to build and saves a
// query ≈ 285–340 µs of a ≈ 365–430 µs gather over ≈ 2 700 candidates:
// the gathers' excess over the walk adds up to one build after ≈ 15
// queries, ≈ 41 000 candidates, 3.0 × the user count. Both costs scale with the stored cells, so the multiple
// carries to other corpus sizes; building at that point costs a base,
// whatever its lifetime turns out to be, at most twice what the better
// choice would have.
const postingsAfter = 3

// Transpose is a base's sketch transpose, over the base's users [0,
// Users()), with those users' norms as the build read them.
type Transpose struct {
	*sketch.Postings
	users int
	built UserSet
	norms []float64
}

// Users returns how many users the transpose covers: those of its
// base, the first Users() dense indexes.
func (t *Transpose) Users() int { return t.users }

// Norm returns user u's norm as the transpose was built: db.Norm(u) for
// every u < Users() that Stale(db) does not hold. The walk reads a norm
// per candidate, and this flat copy spares it the chunk lookup db.Norm
// pays: ≈ 15–20 µs of a ≈ 180 µs bound step on the ledger corpus
// (internal/search's BenchmarkMissStages).
//
//geo:hotpath
func (t *Transpose) Norm(u int) float64 { return t.norms[u] }

// Stale returns the users whose postings db must not read, and gather
// instead: those it or the epoch that built the transpose has written
// since the base — the users past Users() among them.
func (t *Transpose) Stale(db *FootprintDB) UserSet { return stalest(db.written, t.built) }

// SketchPostings returns the sketch transpose db shares with its base
// when the base has one. When it has none the call is charged as a
// gather over `cands` candidates, and the call that takes the base's
// running total across postingsAfter × its user count builds the
// transpose, from db's sketches, before returning it; every other
// caller gets nil meanwhile and gathers. Only one call ever sees the
// total cross the line, so a base builds at most one transpose.
//
// Safe for concurrent use on a database nobody is mutating (a published
// epoch, whose chunks no write touches — the build reads the stored
// sketches, which on a mapped snapshot are the mapping). The sketch
// layer must be enabled.
func (db *FootprintDB) SketchPostings(cands int) *Transpose {
	b := db.indexes()
	if t := b.postings.Load(); t != nil {
		return t
	}
	line := postingsAfter * int64(b.users)
	after := b.gathered.Add(int64(cands))
	if after < line || after-int64(cands) >= line {
		return nil
	}
	p := sketch.BuildPostings(db.SketchParams.G, b.users, db.Sketch)
	if p == nil {
		return nil
	}
	norms := make([]float64, b.users)
	for u := range norms {
		norms[u] = db.Norm(u)
	}
	t := &Transpose{Postings: p, users: b.users, built: db.written, norms: norms}
	b.postings.Store(t)
	return t
}
