package search

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/store"
)

// topPairs is TopSimilarPairs under a context that never cancels.
func topPairs(ix *UserCentricIndex, k, workers int) []Pair {
	pairs, _ := TopSimilarPairs(context.Background(), ix, k, workers)
	return pairs
}

// The self-join polls its context: cancelled before it starts, or at
// any later poll, it stops and returns the context's error, and a
// cancel late enough to be past every poll leaves the answer whole.
func TestTopSimilarPairsCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := testDB(t, rng, 600)
	ix := NewUserCentricIndex(db, BuildSTR, 0)
	want := topPairs(ix, 10, 1)
	counter := &countdownCtx{Context: context.Background(), left: math.MaxInt}
	if got, err := TopSimilarPairs(counter, ix, 10, 1); err != nil || !slices.Equal(got, want) {
		t.Fatalf("uncancelled run: %v, %v", got, err)
	}
	polls := math.MaxInt - counter.left
	for _, left := range []int{0, 1, polls / 2, polls - 1} {
		ctx := &countdownCtx{Context: context.Background(), left: left}
		if got, err := TopSimilarPairs(ctx, ix, 10, 1); !errors.Is(err, context.Canceled) || got != nil {
			t.Fatalf("cancelled after %d of %d polls: %d pairs, %v", left, polls, len(got), err)
		}
		// The poll that sees the cancel, the user loop's and the final
		// check: nothing runs on past it.
		if ctx.left < -3 {
			t.Fatalf("cancelled after %d polls, it polled %d more times", left, -ctx.left)
		}
	}
}

// bruteForcePairs scores every pair with the naive grid similarity.
func bruteForcePairs(db *store.FootprintDB, k int) []Pair {
	var all []Pair
	for i := 0; i < db.Len(); i++ {
		for j := i + 1; j < db.Len(); j++ {
			sim := core.SimilarityNaive(db.Row(i), db.Row(j))
			if sim > 0 {
				a, b := db.IDs[i], db.IDs[j]
				if b < a {
					a, b = b, a
				}
				all = append(all, Pair{A: a, B: b, Score: sim})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return pairBetter(all[i], all[j]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// The self-join finds every positive pair brute force does, in order,
// on a freshly indexed database and on an epoch whose index is its
// base's tree: there the pairs of two users appended since the base,
// and of a user whose MBR grew to meet a higher-indexed one's, have no
// tree entry to find them by.
func TestTopSimilarPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db := testDB(t, rng, 60)
	derived, grown, added := pairsEpoch(t, rng, testDB(t, rng, 60))
	for _, tc := range []struct {
		name string
		db   *store.FootprintDB
		ix   *UserCentricIndex
	}{
		{"fresh", db, NewUserCentricIndex(db, BuildSTR, 0)},
		{"derived", derived, SharedUserCentricIndex(derived)},
	} {
		db := tc.db
		all := bruteForcePairs(db, db.Len()*db.Len())
		if tc.name == "derived" && (!slices.ContainsFunc(all, samePair(grown)) || !slices.ContainsFunc(all, samePair(added))) {
			t.Fatalf("derived: brute force has no %v or %v pair", grown, added)
		}
		for _, k := range []int{1, 5, 20, len(all)} {
			got := topPairs(tc.ix, k, 4)
			want := bruteForcePairs(db, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d pairs, want %d", tc.name, k, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("%s k=%d pair %d score: got %v, want %v", tc.name, k, i, got[i].Score, want[i].Score)
				}
				if got[i].A != want[i].A || got[i].B != want[i].B {
					// Tolerate reordering only between near-equal scores.
					if i+1 < len(want) && math.Abs(want[i].Score-want[i+1].Score) > 1e-9 &&
						(i == 0 || math.Abs(want[i].Score-want[i-1].Score) > 1e-9) {
						t.Fatalf("%s k=%d pair %d: got %+v, want %+v", tc.name, k, i, got[i], want[i])
					}
				}
				if got[i].A >= got[i].B {
					t.Fatalf("pair not ordered: %+v", got[i])
				}
				// The score is Algorithm 4's with the lower dense index in
				// the R role, bit for bit.
				lo, _ := db.IndexOf(got[i].A)
				hi, _ := db.IndexOf(got[i].B)
				if hi < lo {
					lo, hi = hi, lo
				}
				if want := core.SimilarityJoin(db.Row(lo), db.Row(hi), db.Norm(lo), db.Norm(hi)); math.Float64bits(got[i].Score) != math.Float64bits(want) {
					t.Fatalf("%s k=%d pair %d scores %v, Algorithm 4 %v", tc.name, k, i, got[i].Score, want)
				}
			}
		}
	}
}

// pairsEpoch publishes db as a base, builds the base's tree, and
// returns the epoch frozen after two writes the tree cannot see: a
// lower-indexed user given a copy of a higher-indexed one's regions
// whose MBR its own did not meet (grown, by external ID), and two
// appended users with one footprint (added).
func pairsEpoch(t *testing.T, rng *rand.Rand, db *store.FootprintDB) (epoch *store.FootprintDB, grown, added [2]int) {
	t.Helper()
	b := store.NewEpochBuilder(db)
	base := b.Freeze()
	base.UserTree()
	lo, hi := -1, -1
	for u := 0; u < base.Len() && lo < 0; u++ {
		for v := u + 1; v < base.Len(); v++ {
			if base.Norm(u) > 0 && base.Norm(v) > 0 && !base.MBR(u).Intersects(base.MBR(v)) {
				lo, hi = u, v
				break
			}
		}
	}
	if lo < 0 {
		t.Fatal("no two users with disjoint MBRs")
	}
	b.AppendRoIs(base.IDs[lo], base.Row(hi))
	f := clusteredFootprints(rng, 1, 12)[0]
	b.Upsert(1_000_001, f)
	b.Upsert(1_000_002, f)
	epoch = b.Freeze()
	if epoch.UserTree() != base.UserTree() {
		t.Fatal("the epoch does not share its base's tree")
	}
	return epoch, [2]int{base.IDs[lo], base.IDs[hi]}, [2]int{1_000_001, 1_000_002}
}

// samePair matches a pair by its two external IDs.
func samePair(ids [2]int) func(Pair) bool {
	return func(p Pair) bool { return p.A == min(ids[0], ids[1]) && p.B == max(ids[0], ids[1]) }
}

func TestTopSimilarPairsWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	db := testDB(t, rng, 80)
	ix := NewUserCentricIndex(db, BuildSTR, 0)
	seq := topPairs(ix, 10, 1)
	par := topPairs(ix, 10, 8)
	if len(seq) != len(par) {
		t.Fatalf("length mismatch: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, seq[i], par[i])
		}
	}
}

func TestTopSimilarPairsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	db := testDB(t, rng, 10)
	ix := NewUserCentricIndex(db, BuildSTR, 0)
	if got := topPairs(ix, 0, 1); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	// Single-user database.
	one, err := store.FromFootprints("one", []int{1}, []core.Footprint{db.Footprints[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got := topPairs(NewUserCentricIndex(one, BuildSTR, 0), 5, 1); got != nil {
		t.Errorf("single-user db returned %v", got)
	}
	// Pairs never contain self-pairs or duplicates.
	pairs := topPairs(ix, 100, 4)
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if p.A == p.B {
			t.Errorf("self pair %+v", p)
		}
		key := [2]int{p.A, p.B}
		if seen[key] {
			t.Errorf("duplicate pair %+v", p)
		}
		seen[key] = true
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
