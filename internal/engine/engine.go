// Package engine is the parallel query-execution layer over a
// FootprintDB and the Section 6 search indexes: the piece that turns
// the paper's single-query algorithms into a service that can sustain
// top-k similarity traffic from many concurrent clients.
//
// It parallelises on three axes:
//
//   - Across queries — TopKBatch distributes a batch over a worker
//     pool (the pattern of internal/extract/parallel.go); each query
//     runs the one query path on a single worker, so batch results
//     are byte-identical to one-at-a-time execution.
//   - Within a query — TopK shards the refinement work (the
//     join-based Algorithm 4 computation of every candidate the
//     sketch bound does not exclude, whichever method nominated the
//     candidates) across workers, each holding its own bounded top-k
//     heap; the per-worker heaps are merged deterministically under
//     the global (score desc, ID asc) total order, so the parallel
//     result equals the serial one bit for bit.
//   - Preprocessing — PrecomputeNorms recomputes every norm and MBR
//     on a work-queue of users, which load-balances the skewed
//     footprint sizes better than static chunking.
//
// Determinism under parallel merge: a topk.Collector's retained set is
// a function of the *multiset* of offers, not of their order, because
// retention follows the strict total order (higher score first, ties
// by smaller user ID). Each candidate's similarity is computed by
// exactly one worker with the same kernel the serial path uses, so
// sharding changes neither any score bit nor the merged ranking.
package engine

import (
	"context"
	"runtime"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
	"geofootprint/internal/topk"
)

// Method selects the engine's candidate source: which Section 6 index
// nominates the users worth scoring. Bounding, ordering, refinement and
// merging are shared (refine.go), so every method returns the same
// bytes.
type Method int

const (
	// MethodUserCentric nominates the users whose footprint MBR meets
	// the query's, from the user-centric R-tree (Section 6.2) — the
	// paper's fastest method.
	MethodUserCentric Method = iota
	// MethodLinear is the index-free baseline: every user is a
	// candidate.
	MethodLinear
	// MethodIterative is the Section 6.1.1 search. Its per-user
	// accumulator sums floating-point contributions in traversal
	// order, so the accumulation stays serial and only nominates
	// candidates; their scores come from the sharded refinement.
	MethodIterative
	// MethodBatch is the Section 6.1.2 search; serial accumulation,
	// sharded refinement, like MethodIterative.
	MethodBatch
	// MethodSketch is MethodUserCentric's candidate source under the
	// name the sketch filter-and-refine search was introduced with;
	// since every method is bounded by the sketch, the only difference
	// left is that New enables the database's sketch layer when absent.
	MethodSketch
)

// minShard is the smallest number of refinement candidates worth
// handing to an extra worker; below it, goroutine handoff costs more
// than the Algorithm 4 joins it would offload.
const minShard = 32

// Options configures a QueryEngine.
type Options struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Method is the search path to execute (default MethodUserCentric).
	Method Method
	// UserCentric optionally supplies a prebuilt Section 6.2 index;
	// when nil and Method needs one, New bulk-loads it (STR).
	UserCentric *search.UserCentricIndex
	// RoI optionally supplies a prebuilt Section 6.1 index; when nil
	// and Method needs one, New bulk-loads it (STR).
	RoI *search.RoIIndex
}

// QueryEngine executes top-k similarity queries over a FootprintDB in
// parallel. It is safe for concurrent use as long as the underlying
// database and indexes are not mutated concurrently (the server
// serialises mutations behind its write lock, as before).
type QueryEngine struct {
	db      *store.FootprintDB
	uc      *search.UserCentricIndex
	roi     *search.RoIIndex
	workers int
	method  Method
}

// New builds an engine over db, constructing whichever index the
// selected method needs unless one is supplied.
func New(db *store.FootprintDB, opts Options) *QueryEngine {
	e := &QueryEngine{
		db:      db,
		uc:      opts.UserCentric,
		roi:     opts.RoI,
		workers: opts.Workers,
		method:  opts.Method,
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	switch e.method {
	case MethodUserCentric, MethodSketch:
		if e.method == MethodSketch && !db.SketchesEnabled() {
			db.EnableSketches(0, e.workers)
		}
		if e.uc == nil {
			e.uc = search.NewUserCentricIndex(db, search.BuildSTR, 0)
		}
	case MethodIterative, MethodBatch:
		if e.roi == nil {
			e.roi = search.NewRoIIndex(db, search.BuildSTR, 0)
		}
	}
	return e
}

// Workers returns the engine's worker-pool size.
func (e *QueryEngine) Workers() int { return e.workers }

// Method returns the search path the engine executes.
func (e *QueryEngine) Method() Method { return e.method }

// DB returns the wrapped database.
func (e *QueryEngine) DB() *store.FootprintDB { return e.db }

// TopK answers a single top-k query, parallelising the refinement
// step when enough candidates justify the fan-out. Results are
// identical — including every score bit and tie-break — to LinearScan. It is
// TopKCtx under a background context (which never cancels, so the
// error is statically nil).
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

// shardWorkers sizes the within-query fan-out: at most one worker per
// minShard candidates, capped by the pool size.
func (e *QueryEngine) shardWorkers(n int) int {
	w := e.workers
	if byWork := n / minShard; byWork < w {
		w = byWork
	}
	return w
}

// mergeParts merges per-worker bounded heaps into the final top-k.
// The merge is deterministic regardless of worker scheduling: the
// collector's retained set depends only on the multiset of offers
// (strict total order on score desc, user ID asc), and every partial
// heap retains every result that can appear in the global top k.
func mergeParts(parts []*topk.Collector, k int) []search.Result {
	lists := make([][]search.Result, len(parts))
	for i, p := range parts {
		lists[i] = p.Results()
	}
	return MergeParts(lists, k)
}

// MergeParts merges independently computed partial top-k result lists
// into the global top-k under the system-wide total order (score
// desc, user ID asc). It is the deterministic merge seam every
// composition layer shares: per-worker heaps within a query (this
// package), and per-shard partial heaps across the wire
// (internal/router) — the cross-shard result is byte-identical to a
// single-node run exactly because both sides reduce to this function.
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

// PrecomputeNorms recomputes every user's norm (Algorithm 2) and MBR
// on the engine's worker count using a work queue, which load-balances
// skewed footprint sizes better than the static chunking of
// store.ComputeNorms. Use after bulk mutations, before serving. The
// writes themselves live in store.ComputeNormsBalanced: only
// internal/store mutates FootprintDB's parallel slices (the
// sortedfootprint geolint rule).
func (e *QueryEngine) PrecomputeNorms() {
	e.db.ComputeNormsBalanced(e.workers)
}
