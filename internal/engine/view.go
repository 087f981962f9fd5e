package engine

import (
	"context"
	"fmt"
	"sync"

	"geofootprint/internal/cache"
	"geofootprint/internal/core"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// View bundles everything one epoch needs to answer queries: the
// frozen database, its user-centric index, and the engines for the
// HTTP-selectable methods. A View is built once per published epoch —
// off the query path, on the write side, and without an index build
// unless the epoch starts a new base (store/base.go) — and is logically
// immutable afterwards, so any number of queries can share it
// lock-free.
//
// The user-centric engine is built eagerly (it serves production
// traffic, under the names "", "user-centric" and "sketch": one
// engine, one cache entry). The remaining Section 6
// methods — linear, iterative, batch — are HTTP-selectable too, but
// built lazily on first use behind a sync.Once: the iterative/batch
// RoI index costs a full R-tree over every region of every user, and
// paying that on every epoch publish would tax the ingest path for
// methods whose callers are equivalence tests (the cross-shard
// determinism suite drives all four methods through the router) and
// operators comparing methods in place.
type View struct {
	db      *store.FootprintDB
	idx     *search.UserCentricIndex
	uc      *QueryEngine
	workers int

	linOnce sync.Once
	lin     *QueryEngine
	roiOnce sync.Once
	iter    *QueryEngine
	batch   *QueryEngine
}

// NewView builds db's query engines over the user-centric index db
// shares with its base (search.SharedUserCentricIndex): on an epoch
// whose base has published before, it builds no index at all. db must
// already be frozen (no concurrent mutation); enable the sketch layer
// before freezing — NewView never mutates db, so a disabled layer stays
// disabled and Engine("sketch") reports it instead.
func NewView(db *store.FootprintDB, workers int) *View {
	idx := search.SharedUserCentricIndex(db)
	return &View{
		db:      db,
		idx:     idx,
		uc:      New(db, idx, workers),
		workers: workers,
	}
}

// DB returns the view's frozen database (read-only).
func (v *View) DB() *store.FootprintDB { return v.db }

// Index returns the view's user-centric index.
func (v *View) Index() *search.UserCentricIndex { return v.idx }

// Engine maps a method name to the engine executing it — the one place
// a name becomes a candidate source, for the HTTP API and geoquery
// alike. A method picks the source; scoring and ordering are shared, so
// on the same database every method returns bit-identical rankings —
// which is what lets the cross-shard determinism suite compare any of
// them against LinearScan over the wire. "sketch" is the user-centric
// engine, kept as a name that insists on the sketch layer: it errors
// where the layer is disabled instead of silently refining every
// candidate.
func (v *View) Engine(method string) (*QueryEngine, error) {
	switch method {
	case "", "user-centric":
		return v.uc, nil
	case "sketch":
		if !v.db.SketchesEnabled() {
			return nil, fmt.Errorf("method %q unavailable: sketch layer disabled", method)
		}
		return v.uc, nil
	case "linear":
		v.linOnce.Do(func() {
			v.lin = New(v.db, search.AllUsers(v.db), v.workers)
		})
		return v.lin, nil
	case "iterative", "batch":
		v.roiOnce.Do(func() {
			// One RoI index shared by both Section 6.1 engines; built
			// against the frozen database, so lazy construction is safe
			// under concurrent queries (the Once is the only gate).
			roi := search.NewRoIIndex(v.db, search.BuildSTR, 0)
			v.iter = New(v.db, roi.Iterative(), v.workers)
			v.batch = New(v.db, roi.Batch(), v.workers)
		})
		if method == "iterative" {
			return v.iter, nil
		}
		return v.batch, nil
	default:
		return nil, fmt.Errorf("unknown method %q (want \"user-centric\", \"linear\", \"iterative\", \"batch\" or \"sketch\")", method)
	}
}

// CacheName is the name a method's answers are cached under: one per
// engine, so "", "user-centric" and "sketch" — one engine — share their
// entries.
func CacheName(method string) string {
	if method == "" || method == "sketch" {
		return "user-centric"
	}
	return method
}

// TopKCached answers a top-k query through the epoch-keyed result
// cache: a hit returns the previously computed (and, the epoch being
// immutable, still exact) answer; a miss computes on the selected
// engine and populates the cache. c == nil bypasses caching. The
// second return reports a hit. The returned slice is shared with the
// cache and other callers — read-only.
func (v *View) TopKCached(ctx context.Context, c *cache.Cache, epoch uint64, method string, q core.Footprint, k int) ([]search.Result, bool, error) {
	return v.TopKCachedIn(ctx, c, epoch, method, q, k, nil)
}

// TopKCachedIn is TopKCached over the users `in` selects (nil: all of
// them). The restriction is part of the cache key, so answers over
// different parts of the corpus never share an entry.
func (v *View) TopKCachedIn(ctx context.Context, c *cache.Cache, epoch uint64, method string, q core.Footprint, k int, in *search.Restrict) ([]search.Result, bool, error) {
	eng, err := v.Engine(method)
	if err != nil {
		return nil, false, err
	}
	if c == nil {
		res, err := eng.TopKInCtx(ctx, q, k, in)
		return res, false, err
	}
	key := cache.Key{Epoch: epoch, Method: CacheName(method), K: k, Query: cache.FootprintKey(q)}
	if in != nil {
		key.Partition, key.Lo, key.Hi = in.Partition, in.Lo, in.Hi
	}
	val, hit, err := c.GetOrCompute(ctx, key, func() (any, error) {
		return eng.TopKInCtx(ctx, q, k, in)
	})
	if err != nil {
		return nil, false, err
	}
	res, _ := val.([]search.Result)
	return res, hit, nil
}
