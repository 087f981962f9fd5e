package store

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"geofootprint/internal/rtree"
)

// This file is what an epoch inherits instead of rebuilding. The two
// indexes a query reads besides the rows — the user-centric R-tree of
// Section 6.2 and the sketch transpose (postings.go) — are built from
// every user's row, so building them is O(users) per epoch, while an
// ingest burst publishes epochs that differ from each other in a few
// dozen rows. So an epoch shares both with its base: the indexes of the
// last epoch that started them from scratch, built on first use by
// whichever epoch of the base asks first. Beside them every epoch
// carries its written set — the users whose rows may have changed since
// the base, appended users included — and a query reads the shared
// index for everybody else and the epoch's own rows for the set's
// members (search's user-centric source and bound step).
//
// An index built by a later epoch of the base is read by earlier ones
// too, and the later epoch may have written users the earlier one has
// not: the index then holds the later row. So each index keeps the
// written set of the epoch that built it, and a reader treats as stale
// whichever of the two sets is larger. The written sets of one base
// only grow from epoch to epoch, so the larger is the union.
//
// The base holds the indexes and nothing of the rows they were built
// from: a retired epoch is collected whatever base it shares.

// rebuildAfter is the written-set size past which EpochBuilder.Freeze
// starts a new base, so that the next epoch rebuilds the R-tree at
// once and the transpose once it has earned it.
//
// A member of the set costs every query on the epoch a test of its MBR
// and, for the one in five a query nominates, a gather of its sketch
// beside the walk. On the 13 900-user ledger corpus (internal/search's
// BenchmarkWrittenSet, 10 000 queries) 1 024 members take the candidate
// and bound steps from ≈ 223 to ≈ 302 µs: ≈ 80 ns a member. A rebuild
// costs the STR build (rtree's BenchmarkBulk10k: ≈ 6.9 ms for 10 000
// entries, ≈ 10 ms at 13 900) and, once earned, the transpose
// (BenchmarkPostingsBuild: ≈ 15 ms): ≈ 25 ms. (A 2-core x86-64 host, 2–3×
// slower than the one the other constants were sized on; the ratios
// carry.) So at 1 024 members the set costs a query ≈ 80 µs, under a
// tenth of a ≈ 0.9 ms query, and ≈ 300 such queries — three seconds of
// the ledger's reader — pay for a rebuild. A larger set would tax every
// query more than a tenth to save a rebuild that cheap; an ingest that
// writes fewer users — ingest_mixed writes ≈ 700 in a run — never
// rebuilds.
const rebuildAfter = 1024

// UserSet is an immutable set of dense user indexes: the users an epoch
// has written since its base. The zero value is empty.
type UserSet struct {
	bits []uint64
	n    int
}

// Has reports whether u is in the set.
//
//geo:hotpath
func (s UserSet) Has(u int) bool {
	w := u >> 6
	return w < len(s.bits) && s.bits[w]&(1<<(u&63)) != 0
}

// Len returns the number of users in the set.
func (s UserSet) Len() int { return s.n }

// AppendTo appends the set's members below n to buf in increasing
// order and returns the extended slice. (An epoch reading an index
// built by a later one gets that epoch's set, which may name users it
// does not have yet.)
func (s UserSet) AppendTo(buf []int, n int) []int {
	for w, word := range s.bits {
		for word != 0 {
			u := w<<6 + bits.TrailingZeros64(word)
			if u >= n {
				return buf
			}
			buf = append(buf, u)
			word &= word - 1
		}
	}
	return buf
}

// stalest is the larger of two written sets of one base — the union,
// the sets of one base being nested.
func stalest(a, b UserSet) UserSet {
	if b.n > a.n {
		return b
	}
	return a
}

// indexBase is the state a base's epochs share: the user count its
// indexes cover — users [0, users); later ones are in every epoch's
// written set — the indexes once built, and the ski-rental charge
// towards the transpose (postings.go).
type indexBase struct {
	users    int
	treeOnce sync.Once
	tree     *UserTree
	postings atomic.Pointer[Transpose]
	gathered atomic.Int64
}

// indexes returns db's base, making one over its current rows when it
// has none: a database that is not an epoch is its own base.
func (db *FootprintDB) indexes() *indexBase {
	if b := db.base.Load(); b != nil {
		return b
	}
	db.base.CompareAndSwap(nil, &indexBase{users: db.Len()})
	return db.base.Load()
}

// dropBase forgets the base and its written set. Every write of the
// rows (through wrote) or of the sketch layer (EnableSketches,
// DisableSketches) of a database runs it: its indexes may describe
// rows, a resolution and a user count that no longer exist. Epochs are
// never written; an EpochBuilder carries the base across its writes
// itself.
func (db *FootprintDB) dropBase() {
	db.base.Store(nil)
	db.written = UserSet{}
}

// UserTree is a base's user-centric R-tree: one entry per base user
// with a non-empty footprint, keyed by its MBR, the user's dense index
// as the entry's data.
type UserTree struct {
	*rtree.Tree
	built UserSet
}

// Stale returns the users whose tree entry db must not trust: those it
// or the epoch that built the tree has written since the base.
func (t *UserTree) Stale(db *FootprintDB) UserSet { return stalest(db.written, t.built) }

// UserTree returns the user-centric R-tree db shares with its base,
// STR bulk-loaded with the default node capacity by the first caller
// over its own MBRs. Safe for concurrent use on a database nobody is
// mutating.
func (db *FootprintDB) UserTree() *UserTree {
	b := db.indexes()
	b.treeOnce.Do(func() {
		entries := make([]rtree.Entry, 0, b.users)
		for u, m := range db.MBRs[:b.users] {
			if !m.IsEmpty() {
				entries = append(entries, rtree.Entry{Rect: m, Data: int64(u)})
			}
		}
		b.tree = &UserTree{Tree: rtree.Bulk(entries, 0), built: db.written}
	})
	return b.tree
}
