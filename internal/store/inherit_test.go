package store_test

// External test package: the epochs are checked through search.TopK
// against search.LinearScan, which import store.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// inheritRestriction puts every user of db in one of eight segments and
// selects three of them.
func inheritRestriction(rng *rand.Rand, db *store.FootprintDB) *search.Restrict {
	segOf := make([]uint16, db.Len())
	for u := range segOf {
		segOf[u] = uint16(rng.Intn(8))
	}
	return &search.Restrict{Partition: "inherit", SegOf: segOf, Lo: 2, Hi: 5}
}

// inheritOracle is LinearScan's ranking of db restricted to `in` (nil:
// all users), cut to k.
func inheritOracle(db *store.FootprintDB, q core.Footprint, k int, in *search.Restrict) []search.Result {
	if in == nil {
		return search.NewLinearScan(db).TopK(q, k)
	}
	kept := []search.Result{} // what an empty collector returns
	for _, r := range search.NewLinearScan(db).TopK(q, db.Len()+1) {
		u, _ := db.IndexOf(r.ID)
		if s := in.SegOf[u]; s >= in.Lo && s < in.Hi && len(kept) < k {
			kept = append(kept, r)
		}
	}
	return kept
}

// inheritWrites applies n random writes through b: replacements and
// appends on existing users, removals, and new users.
func inheritWrites(rng *rand.Rand, b *store.EpochBuilder, n int) {
	db := b.DB()
	for i := 0; i < n; i++ {
		id := db.IDs[rng.Intn(db.Len())]
		switch rng.Intn(5) {
		case 0, 1:
			b.Upsert(id, postingsFootprint(rng))
		case 2:
			b.AppendRoIs(id, postingsFootprint(rng))
		case 3:
			b.Remove(id)
		default:
			b.Upsert(1_000_000+db.Len(), postingsFootprint(rng))
		}
	}
}

// checkEpoch compares every query on ep, for k ∈ {1, 5, 20}, whole and
// restricted, through the index ep shares with its base, with
// LinearScan, and the shared index's candidates with a fresh one's.
func checkEpoch(t *testing.T, when string, rng *rand.Rand, ep *store.FootprintDB, queries []core.Footprint) {
	t.Helper()
	shared := search.SharedUserCentricIndex(ep)
	fresh := search.NewUserCentricIndex(ep, search.BuildSTR, 0)
	in := inheritRestriction(rng, ep)
	ctx := context.Background()
	for qi, q := range queries {
		got := shared.Candidates(q.MBR(), nil)
		want := fresh.Candidates(q.MBR(), nil)
		if !sameUsers(got, want) {
			t.Fatalf("%s query %d: the shared index nominates %d users, a fresh one %d", when, qi, len(got), len(want))
		}
		for _, k := range []int{1, 5, 20} {
			for _, r := range []*search.Restrict{nil, in} {
				res, err := search.TopK(ctx, ep, shared, q, search.AdHoc, k, r, nil)
				if want := inheritOracle(ep, q, k, r); err != nil || !reflect.DeepEqual(res, want) {
					t.Fatalf("%s query %d k=%d restricted=%v: %v (err %v), LinearScan %v", when, qi, k, r != nil, res, err, want)
				}
			}
		}
		checkBounds(t, when, ep, q)
	}
}

// sameUsers reports whether a and b hold the same users, each once.
func sameUsers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, u := range a {
		seen[u] = true
	}
	for _, u := range b {
		if !seen[u] {
			return false
		}
	}
	return len(seen) == len(a)
}

// TestEpochInheritByteIdentical drives a builder through random writes
// over several publishes, one of which writes more users than a base
// keeps, and keeps every epoch. Epochs of one base share one R-tree and
// one transpose, built by whichever epoch asks first — a later one, for
// some — and every epoch, older or newer than the one that built them,
// answers as LinearScan does over its own rows.
func TestEpochInheritByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4301))
	db := postingsDB(t, rng, 2400, 1)
	db.EnableSketches(32, 0)
	b := store.NewEpochBuilder(db)
	epochs := []*store.FootprintDB{b.Freeze()}
	writes := []int{7, 30, 1, 3500, 12, 40, 3}
	rebuilt := 0
	for i, n := range writes {
		inheritWrites(rng, b, n)
		ep := b.Freeze()
		prev := epochs[len(epochs)-1]
		if i%2 == 1 {
			// A later epoch builds what the earlier ones of its base read.
			ep.UserTree()
			ep.SketchPostings(paid)
		}
		if ep.UserTree() != prev.UserTree() {
			rebuilt++
			if n <= 1024 {
				t.Fatalf("publish %d started a new base after %d writes", i, n)
			}
		} else if prev.SketchPostings(0) != ep.SketchPostings(0) {
			t.Fatalf("publish %d: two epochs of one base see different transposes", i)
		}
		epochs = append(epochs, ep)
	}
	if rebuilt != 1 {
		t.Fatalf("%d new bases over the publishes, want the one after 3 500 writes", rebuilt)
	}
	for _, ep := range epochs {
		ep.SketchPostings(paid)
	}
	queries := make([]core.Footprint, 6)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = postingsFootprint(rng)
		} else {
			last := epochs[len(epochs)-1]
			u := rng.Intn(last.Len())
			for last.RowLen(u) == 0 {
				u = rng.Intn(last.Len())
			}
			queries[i] = last.Row(u)
		}
	}
	for i, ep := range epochs {
		checkEpoch(t, fmt.Sprintf("epoch %d", i), rng, ep, queries)
	}
}

// TestEpochInheritConcurrentTranspose races queries on a base and on
// the epochs derived from it across the base's build line: one of them
// builds the transpose the others then walk, every answer is
// LinearScan's, and all of them end up with the same transpose.
func TestEpochInheritConcurrentTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4302))
	db := postingsDB(t, rng, 300, 1)
	db.EnableSketches(16, 0)
	b := store.NewEpochBuilder(db)
	epochs := []*store.FootprintDB{b.Freeze()}
	for i := 0; i < 4; i++ {
		inheritWrites(rng, b, 10+rng.Intn(30))
		epochs = append(epochs, b.Freeze())
	}
	queries := make([]core.Footprint, 12)
	for i := range queries {
		queries[i] = postingsFootprint(rng)
	}
	wants := make([][][]search.Result, len(epochs))
	for e, ep := range epochs {
		for _, q := range queries {
			wants[e] = append(wants[e], search.NewLinearScan(ep).TopK(q, 5))
		}
	}
	var wg sync.WaitGroup
	for e, ep := range epochs {
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(e, r int, ep *store.FootprintDB) {
				defer wg.Done()
				ix := search.SharedUserCentricIndex(ep)
				for i := 0; i < 40; i++ {
					qi := (r + 3*i) % len(queries)
					got, err := search.TopK(context.Background(), ep, ix, queries[qi], search.AdHoc, 5, nil, nil)
					if err != nil || !reflect.DeepEqual(got, wants[e][qi]) {
						t.Errorf("epoch %d query %d: %v (err %v), LinearScan %v", e, qi, got, err, wants[e][qi])
						return
					}
				}
			}(e, r, ep)
		}
	}
	wg.Wait()
	built := epochs[0].SketchPostings(0)
	if built == nil {
		t.Fatal("the queries never took the base across its build line")
	}
	for e, ep := range epochs {
		if ep.SketchPostings(0) != built {
			t.Fatalf("epoch %d sees another transpose than its base", e)
		}
	}
}
