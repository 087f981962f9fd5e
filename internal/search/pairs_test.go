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

func TestTopSimilarPairsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	db := testDB(t, rng, 60)
	ix := NewUserCentricIndex(db, BuildSTR, 0)

	for _, k := range []int{1, 5, 20} {
		got := topPairs(ix, k, 4)
		want := bruteForcePairs(db, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d pairs, want %d", k, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("k=%d pair %d score: got %v, want %v", k, i, got[i].Score, want[i].Score)
			}
			if got[i].A != want[i].A || got[i].B != want[i].B {
				// Tolerate reordering only between near-equal scores.
				if i+1 < len(want) && math.Abs(want[i].Score-want[i+1].Score) > 1e-9 &&
					(i == 0 || math.Abs(want[i].Score-want[i-1].Score) > 1e-9) {
					t.Fatalf("k=%d pair %d: got %+v, want %+v", k, i, got[i], want[i])
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
			if want := core.SimilarityJoin(db.Footprints[lo], db.Footprints[hi], db.Norms[lo], db.Norms[hi]); math.Float64bits(got[i].Score) != math.Float64bits(want) {
				t.Fatalf("k=%d pair %d scores %v, Algorithm 4 %v", k, i, got[i].Score, want)
			}
		}
	}
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
