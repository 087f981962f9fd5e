// Package engine is the query-execution layer over a FootprintDB and
// the Section 6 search indexes: the piece that turns the paper's
// single-query algorithms into a service that can sustain top-k
// similarity traffic from many concurrent clients.
//
// It parallelises across queries only. A query runs the one top-k loop
// (search.TopK) on its caller's goroutine — after the sketch bound and
// the seed it is ≈ 130 Algorithm 4 joins, too short to split — and
// concurrent requests each have their own. TopKBatch distributes a
// batch over a pool of `workers` goroutines (internal/par), one query
// per item, so batch results are byte-identical to one-at-a-time
// execution.
package engine

import (
	"context"
	"runtime"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
	"geofootprint/internal/topk"
)

// QueryEngine executes top-k similarity queries over a FootprintDB:
// one candidate source (the method), the one loop of internal/search,
// and the width of the pool a batch runs on. It is safe for concurrent
// use as long as the source is and the underlying database and indexes
// are not mutated concurrently (the server publishes immutable epochs).
type QueryEngine struct {
	db      *store.FootprintDB
	src     search.Source
	workers int
}

// New builds an engine answering from src's candidates over db, its
// batches on `workers` goroutines; <= 0 selects GOMAXPROCS.
func New(db *store.FootprintDB, src search.Source, workers int) *QueryEngine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &QueryEngine{db: db, src: src, workers: workers}
}

// TopK answers a single top-k query on the calling goroutine. Results
// are identical — including every score bit and tie-break — to
// LinearScan. It is TopKCtx under a background context (which never
// cancels, so the error is statically nil).
func (e *QueryEngine) TopK(q core.Footprint, k int) []search.Result {
	res, _ := e.TopKCtx(context.Background(), q, k)
	return res
}

// TopKBatch answers a batch of queries across the worker pool, one
// merged result set per query, in input order. Each query runs on a
// single worker, so the output is byte-identical to calling TopK per
// query — for every method. It is TopKBatchCtx under a background
// context.
func (e *QueryEngine) TopKBatch(queries []core.Footprint, k int) [][]search.Result {
	out, _ := e.TopKBatchCtx(context.Background(), queries, k)
	return out
}

// MergeParts merges independently computed partial top-k result lists
// into the global top-k under the system-wide total order (score
// desc, user ID asc). It is the deterministic merge seam every
// composition layers share: per-shard partial heaps across the wire
// (internal/router) reduce to this function — offers into one
// collector, as the single-node loop (search.TopK) makes them — which
// is why the cross-shard result is byte-identical to a single-node
// run.
//
// The operation is associative: merging pre-merged partials equals
// merging the flat parts, MergeParts([MergeParts(A,k),
// MergeParts(B,k)], k) == MergeParts(A ++ B, k). Proof sketch: every
// element of the global top-k over A ∪ B is, within its own part,
// outranked by fewer than k elements, so a per-part top-k retains it;
// and the collector's retained set is a function of the multiset of
// offers, not their order (property-tested in merge_test.go).
//
// Each part must be the output of a bounded top-k over its slice of
// the corpus with at least the same k — a part truncated below k may
// have discarded a global top-k member, which is exactly the
// "partial result" case the router reports explicitly rather than
// merging silently.
func MergeParts(parts [][]search.Result, k int) []search.Result {
	col := topk.New(k)
	for _, p := range parts {
		for _, r := range p {
			col.Offer(r.ID, r.Score)
		}
	}
	return col.Results()
}
