// Package search implements the top-k footprint-similarity search
// methods of Section 6 of the paper:
//
//   - LinearScan — the index-free baseline: Algorithm 4 against every
//     user.
//   - RoIIndex — an R-tree over all RoIs of all users, searched either
//     iteratively (one range query per query RoI, Section 6.1.1) or in
//     batch (one guided traversal with per-leaf plane-sweep joins,
//     Section 6.1.2).
//   - UserCentricIndex — an R-tree with one entry per user (the MBR of
//     the user's footprint), refined with Algorithm 4 (Section 6.2).
//
// The indexes are candidate sources (source.go) for the one top-k loop
// (TopK, topk.go): an index nominates users, the loop scores them with
// Algorithm 4, so on the same database every method returns identical
// rankings (verified by tests). LinearScan alone keeps a loop of its
// own — the naive one every other path is checked against. Users with
// zero similarity are never returned, so a result may hold fewer than
// k entries.
package search

import (
	"context"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/rtree"
	"geofootprint/internal/store"
	"geofootprint/internal/topk"
)

// Result is a ranked user: its external ID and similarity score.
type Result = topk.Result

// Searcher answers top-k footprint similarity queries.
type Searcher interface {
	// TopK returns the k users most similar to the query footprint,
	// best first. Users with similarity 0 are omitted, so fewer
	// than k results may be returned.
	TopK(q core.Footprint, k int) []Result
}

// LinearScan is the baseline searcher: similarity against every user
// with the join-based Algorithm 4 (norms are precomputed in the
// database). It is the oracle of every byte-identity suite, so it
// deliberately shares nothing with TopK but the kernel and the
// collector.
type LinearScan struct {
	db *store.FootprintDB
}

// NewLinearScan returns a LinearScan over db.
func NewLinearScan(db *store.FootprintDB) *LinearScan {
	return &LinearScan{db: db}
}

// TopK implements Searcher. It is TopKCtx under a background context
// (which never cancels, so the error is statically nil).
func (s *LinearScan) TopK(q core.Footprint, k int) []Result {
	res, _ := s.TopKCtx(context.Background(), q, k)
	return res
}

// TopKCtx is TopK honouring ctx; it returns ctx.Err() when cancelled.
//
//geo:cancellable
func (s *LinearScan) TopKCtx(ctx context.Context, q core.Footprint, k int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	qnorm := core.Norm(q)
	if qnorm == 0 || k <= 0 {
		return nil, nil
	}
	col := topk.New(k)
	for i := range s.db.IDs {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if sim := s.db.UserSimilarity(i, q, qnorm); sim > 0 {
			col.Offer(s.db.IDs[i], sim)
		}
	}
	return col.Results(), nil
}

// serial is the one loop on the calling goroutine, under a background
// context (which never cancels, so the error is statically nil): what
// every index's TopK spelling is.
func serial(db *store.FootprintDB, src Source, q core.Footprint, k int) []Result {
	res, _ := TopK(context.Background(), db, src, q, AdHoc, k, nil, nil)
	return res
}

// payload encoding for the RoI R-tree: user index and region index
// packed into an int64.
const regionBits = 24

func packPayload(user, region int) int64 {
	return int64(user)<<regionBits | int64(region)
}

func unpackPayload(p int64) (user, region int) {
	return int(p >> regionBits), int(p & (1<<regionBits - 1))
}

// RoIIndex is the Section 6.1 index: every RoI of every footprint is
// an R-tree entry tagged with its owner.
type RoIIndex struct {
	db   *store.FootprintDB
	tree *rtree.Tree
}

// BuildMode selects the R-tree construction path.
type BuildMode int

const (
	// BuildSTR bulk-loads the tree with sort-tile-recursive packing.
	BuildSTR BuildMode = iota
	// BuildInsert constructs the tree by one-by-one Guttman
	// insertion, the paper's implicit build path.
	BuildInsert
)

// NewRoIIndex indexes every region of every footprint in db.
// maxEntries <= 0 selects the default node capacity.
func NewRoIIndex(db *store.FootprintDB, mode BuildMode, maxEntries int) *RoIIndex {
	ix := &RoIIndex{db: db}
	var f core.Footprint
	switch mode {
	case BuildInsert:
		ix.tree = rtree.New(maxEntries)
		for u := range db.IDs {
			f = db.AppendRow(f[:0], u)
			for r, reg := range f {
				ix.tree.Insert(reg.Rect, packPayload(u, r))
			}
		}
	default:
		entries := make([]rtree.Entry, 0, db.NumRegions())
		for u := range db.IDs {
			f = db.AppendRow(f[:0], u)
			for r, reg := range f {
				entries = append(entries, rtree.Entry{Rect: reg.Rect, Data: packPayload(u, r)})
			}
		}
		ix.tree = rtree.Bulk(entries, maxEntries)
	}
	return ix
}

// Tree exposes the underlying R-tree (for stats and tests).
func (ix *RoIIndex) Tree() *rtree.Tree { return ix.tree }

// TopK implements Searcher via iterative search.
func (ix *RoIIndex) TopK(q core.Footprint, k int) []Result {
	return ix.TopKIterative(q, k)
}

// TopKIterative is the Section 6.1.1 search: one R-tree range query per
// query RoI nominates the candidates.
func (ix *RoIIndex) TopKIterative(q core.Footprint, k int) []Result {
	return serial(ix.db, ix.Iterative(), q, k)
}

// TopKBatch is the Section 6.1.2 search: a single traversal guided by
// MBR(F(q)) with per-leaf joins nominates the candidates.
func (ix *RoIIndex) TopKBatch(q core.Footprint, k int) []Result {
	return serial(ix.db, ix.Batch(), q, k)
}

// UserCentricIndex is the Section 6.2 index R^U: one R-tree entry per
// user, keyed by the MBR of the user's footprint. Candidates whose
// footprint MBR intersects the query MBR are refined with the
// join-based Algorithm 4. An epoch's index (SharedUserCentricIndex)
// reads a tree its base shares, whose entries for the users in stale
// may not be their current MBRs: those entries are dropped and the
// users' MBRs in db tested directly.
type UserCentricIndex struct {
	db    *store.FootprintDB
	tree  *rtree.Tree
	stale store.UserSet
}

// NewUserCentricIndex indexes the footprint MBRs of db. Users with
// empty footprints are not indexed. maxEntries <= 0 selects the
// default node capacity.
func NewUserCentricIndex(db *store.FootprintDB, mode BuildMode, maxEntries int) *UserCentricIndex {
	ix := &UserCentricIndex{db: db}
	switch mode {
	case BuildInsert:
		ix.tree = rtree.New(maxEntries)
		for u, m := range db.MBRs {
			if !m.IsEmpty() {
				ix.tree.Insert(m, int64(u))
			}
		}
	default:
		entries := make([]rtree.Entry, 0, db.Len())
		for u, m := range db.MBRs {
			if !m.IsEmpty() {
				entries = append(entries, rtree.Entry{Rect: m, Data: int64(u)})
			}
		}
		ix.tree = rtree.Bulk(entries, maxEntries)
	}
	return ix
}

// SharedUserCentricIndex is db's user-centric index over the STR tree
// db shares with its base (store.FootprintDB.UserTree): an epoch's
// index costs no build unless it is the first of its base to ask. It
// nominates what NewUserCentricIndex's would.
func SharedUserCentricIndex(db *store.FootprintDB) *UserCentricIndex {
	t := db.UserTree()
	return &UserCentricIndex{db: db, tree: t.Tree, stale: t.Stale(db)}
}

// Tree exposes the underlying R-tree (for stats and tests). On a
// shared index (SharedUserCentricIndex) it is the base's tree, whose
// entries for the users written since the base may be stale or
// missing: search it through Candidates, not directly.
func (ix *UserCentricIndex) Tree() *rtree.Tree { return ix.tree }

// Candidates runs the filter step of the Section 6.2 search alone: the
// dense indexes of every user whose footprint MBR intersects qmbr, in
// R-tree traversal order and then, for the stale users, in increasing
// order, appended to buf.
func (ix *UserCentricIndex) Candidates(qmbr geom.Rect, buf []int) []int {
	stale := ix.stale
	ix.tree.Search(qmbr, func(e rtree.Entry) bool {
		if u := int(e.Data); !stale.Has(u) {
			buf = append(buf, u)
		}
		return true
	})
	if stale.Len() == 0 {
		return buf
	}
	n := len(buf)
	buf = stale.AppendTo(buf, ix.db.Len())
	kept := buf[:n]
	for _, u := range buf[n:] {
		if ix.db.MBRs[u].Intersects(qmbr) {
			kept = append(kept, u)
		}
	}
	return kept
}

// TopK implements Searcher: the Section 6.2 search.
func (ix *UserCentricIndex) TopK(q core.Footprint, k int) []Result {
	return serial(ix.db, ix, q, k)
}
