package search

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/sketch"
	"geofootprint/internal/store"
	"geofootprint/internal/topk"
)

// TestDuplicateFootprintTieBreak: two users with identical footprints,
// stored as IDs 5 then 3, tie on every score; asked for the one user
// most similar to that footprint, every source, gathering and walking, must return LinearScan's choice — the smaller
// ID. A bound that falls an ulp below the similarity it bounds prunes
// user 3 as soon as user 5 has been refined, which is what the sketch
// bound did before UpperBound got its slack.
func TestDuplicateFootprintTieBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ctx := context.Background()
	for trial := 0; trial < 30; trial++ {
		fps := clusteredFootprints(rng, 41, 6)
		dup := fps[40] // drawn around the same hotspots as the others
		fps = append(fps[:40], dup, append(core.Footprint(nil), dup...))
		ids := make([]int, len(fps))
		for i := range ids {
			ids[i] = 100 + i
		}
		ids[len(ids)-2], ids[len(ids)-1] = 5, 3
		db, err := store.FromFootprints("duplicates", ids, fps)
		if err != nil {
			t.Fatal(err)
		}
		db.EnableSketches(0, 0)
		want := NewLinearScan(db).TopK(dup, 1)
		if len(want) != 1 || want[0].ID != 3 {
			t.Fatalf("trial %d: LinearScan answers %v, want ID 3", trial, want)
		}
		walked, _ := transposed(t, db)
		for _, side := range []*store.FootprintDB{young(db), walked} {
			for name, src := range testSources(t, side) {
				got, err := TopK(ctx, side, src, dup, AdHoc, 1, nil, nil)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, %s: %v (err %v), LinearScan %v", trial, name, got, err, want)
				}
			}
		}
	}
}

// TestSeedMatchesFullOrder checks the seed against its definition: the
// k candidates it joins are the first k of the bound order, and what it
// leaves is every other candidate whose bound reaches the k-th score it
// found, in the order they came.
func TestSeedMatchesFullOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	db := testDB(t, rng, 300)
	db.EnableSketches(0, 0)
	for qi, q := range clusteredFootprints(rng, 12, 12) {
		qnorm := core.Norm(q)
		cands, _ := AllUsers(db).Nominate(context.Background(), q, nil)
		scored, err := SketchBound(context.Background(), db, cands, q, AdHoc, qnorm, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, 40, max(1, len(scored)), len(scored) + 3} {
			full := OrderByBound(append([]SketchCandidate(nil), scored...))
			var first []SketchCandidate
			for len(first) < k && full.Len() > 0 {
				first = append(first, full.Next())
			}
			var oracle Refiner
			oracle.Col = topk.New(k)
			for _, c := range first {
				oracle.join(db, c.User, q, qnorm)
			}
			var wantRest []SketchCandidate
			if len(scored) > k {
				tau := 0.0
				if oracle.Col.Len() == k {
					tau = oracle.Col.Threshold()
				}
				seeded := map[int]bool{}
				for _, c := range first {
					seeded[c.User] = true
				}
				for _, c := range scored {
					if !seeded[c.User] && c.Bound >= tau {
						wantRest = append(wantRest, c)
					}
				}
			}

			r := Refiner{Col: topk.New(k)}
			rest, _ := r.Seed(db, append([]SketchCandidate(nil), scored...), nil, q, k, qnorm)
			if r.Refined != len(first) || !reflect.DeepEqual(r.Col.Results(), oracle.Col.Results()) {
				t.Fatalf("query %d k=%d: the seed joined %d into %v, the first %d of the order give %v",
					qi, k, r.Refined, r.Col.Results(), len(first), oracle.Col.Results())
			}
			if len(rest) != len(wantRest) || (len(rest) > 0 && !reflect.DeepEqual(rest, wantRest)) {
				t.Fatalf("query %d k=%d: %d survivors, want %d", qi, k, len(rest), len(wantRest))
			}
		}
	}
}

// TestSelfBoundsDominateOnLedgerCorpus is the property the tie-break
// rests on, at the ledger's scale: for every user of the 13 900-user
// Part A corpus, the sketch bound against its own footprint is at least
// the similarity the refinement computes — as computed, bit for bit
// comparable, no tolerance. Without UpperBound's slack most of them
// fail by an ulp.
func TestSelfBoundsDominateOnLedgerCorpus(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("generates the 13 900-user corpus")
	}
	db := ledgerCorpus(t)
	violations := 0
	for u := range db.IDs {
		if db.Norms[u] == 0 {
			continue
		}
		f := db.Footprints[u]
		qsk := sketch.Build(f, db.SketchParams)
		bound := sketch.UpperBound(db.UserSketchDot(u, &qsk), db.Norms[u], db.Norms[u])
		if sim := db.UserSimilarity(u, f, db.Norms[u]); bound < sim {
			if violations++; violations <= 3 {
				t.Errorf("user %d: self bound %.17g below the self-similarity %.17g", db.IDs[u], bound, sim)
			}
		}
	}
	if violations > 0 {
		t.Fatalf("%d of %d self bounds below the self-similarity", violations, db.Len())
	}
}

// The candidate filter is the one extra step a segment query runs per
// candidate; it compacts in place and must never allocate.
func TestRestrictFilterZeroAllocs(t *testing.T) {
	segOf := make([]uint16, 4800)
	for u := range segOf {
		segOf[u] = uint16(u % 12)
	}
	in := &Restrict{SegOf: segOf, Lo: 3, Hi: 6}
	cands := make([]int, len(segOf))
	var kept int
	if avg := testing.AllocsPerRun(100, func() {
		for u := range cands {
			cands[u] = u
		}
		kept = len(in.filter(cands))
	}); avg != 0 {
		t.Fatalf("Restrict.filter allocates: %v allocs/run", avg)
	}
	if want := len(segOf) / 12 * 3; kept != want {
		t.Fatalf("kept %d candidates, want %d", kept, want)
	}
	var none *Restrict
	if got := none.filter(cands); len(got) != len(cands) {
		t.Fatalf("nil restriction dropped candidates: %d of %d", len(got), len(cands))
	}
}
