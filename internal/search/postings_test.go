package search

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/sketch"
	"geofootprint/internal/store"
	"geofootprint/internal/store/storetest"
)

// transposed returns a frozen copy of db whose sketch transpose is
// built; young returns one that has served nothing yet, so its next
// query gathers (one query cannot nominate four times the corpus).
func transposed(t *testing.T, db *store.FootprintDB) (*store.FootprintDB, *store.Transpose) {
	t.Helper()
	frozen := young(db)
	p := frozen.SketchPostings(1 << 40)
	if p == nil {
		t.Fatal("no transpose after a paid-up gather")
	}
	return frozen, p
}

func young(db *store.FootprintDB) *store.FootprintDB { return store.NewEpochBuilder(db).Freeze() }

func testRestrictions(rng *rand.Rand, users int) []*Restrict {
	segOf := make([]uint16, users)
	for u := range segOf {
		segOf[u] = uint16(rng.Intn(12))
	}
	return []*Restrict{nil, {Partition: "test", SegOf: segOf, Lo: 3, Hi: 8}, {Partition: "test", SegOf: segOf, Lo: 5, Hi: 6}}
}

// restrictedLinear is LinearScan's full ranking with the users outside
// the restriction removed, cut to k.
func restrictedLinear(db *store.FootprintDB, q core.Footprint, k int, in *Restrict) []Result {
	kept := []Result{} // what an empty collector returns
	for _, r := range NewLinearScan(db).TopK(q, db.Len()+1) {
		u, _ := db.IndexOf(r.ID)
		if len(in.filter([]int{u})) == 1 && len(kept) < k {
			kept = append(kept, r)
		}
	}
	return kept
}

// TestBoundSidesIdentical forces each side of the bound step on the
// candidates of every source, whole-corpus and restricted: the same
// users, the same bound bits — those of the three-term merge-join
// reference, sketch.BoundDot — the same order, and through the whole
// loop, the same work counts and LinearScan's answer. The derived row
// runs on an epoch that reads its base's R-tree and transpose, stale
// for the users it and a later epoch wrote.
func TestBoundSidesIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, backing := range []string{"written", "columnar", "derived"} {
		db := testDB(t, rng, 500)
		db.Remove(db.IDs[17]) // a tombstone row in the transpose, in a rewritten chunk
		db.EnableSketches(0, 0)
		if backing == "columnar" {
			cdb, err := store.FromColumnar(db.Columnar(nil))
			if err != nil {
				t.Fatal(err)
			}
			db = cdb
		}
		var ready *store.FootprintDB
		var post *store.Transpose
		if backing == "derived" {
			db = storetest.DerivedEpoch(t, rng, db, func(n int) []core.Footprint { return clusteredFootprints(rng, n, 12) })
			ready, post = db, db.SketchPostings(0)
		} else {
			ready, post = transposed(t, db)
		}
		restrictions := testRestrictions(rng, db.Len())
		queries := append(clusteredFootprints(rng, 6, 12), db.Row(3), db.Row(17))
		ctx := context.Background()
		srcs := testSources(t, db)
		if backing == "derived" {
			srcs["user-centric-shared"] = SharedUserCentricIndex(db)
		}
		for name, src := range srcs {
			for qi, q := range queries {
				qnorm := core.Norm(q)
				qsk := sketch.Build(q, db.SketchParams)
				for ri, in := range restrictions {
					nominated, err := src.Nominate(ctx, q, nil)
					if err != nil {
						t.Fatal(err)
					}
					cands := in.filter(nominated)
					gather, err := boundByGather(ctx, ready, cands, &qsk, qnorm, nil)
					if err != nil {
						t.Fatal(err)
					}
					walk, err := boundByPostings(ctx, ready, post, cands, &qsk, qnorm, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(gather) != len(walk) {
						t.Fatalf("%s/%s query %d restriction %d: %d bounds by gather, %d by postings", backing, name, qi, ri, len(gather), len(walk))
					}
					for i := range gather {
						if gather[i].User != walk[i].User || math.Float64bits(gather[i].Bound) != math.Float64bits(walk[i].Bound) {
							t.Fatalf("%s/%s query %d restriction %d: bound %d is %+v by gather, %+v by postings", backing, name, qi, ri, i, gather[i], walk[i])
						}
						u := gather[i].User
						if ref := sketch.UpperBound(ready.UserSketchDot(u, &qsk), ready.Norm(u), qnorm); math.Float64bits(ref) != math.Float64bits(gather[i].Bound) {
							t.Fatalf("%s/%s query %d restriction %d: user %d bound %v, the reference gives %v", backing, name, qi, ri, u, gather[i].Bound, ref)
						}
					}

					if qnorm == 0 {
						continue
					}
					var stGather, stWalk SketchStats
					fromGather, err := TopK(ctx, young(db), src, q, AdHoc, 5, in, &stGather)
					if err != nil {
						t.Fatal(err)
					}
					fromWalk, err := TopK(ctx, ready, src, q, AdHoc, 5, in, &stWalk)
					if err != nil {
						t.Fatal(err)
					}
					want := restrictedLinear(db, q, 5, in)
					if !reflect.DeepEqual(fromGather, want) || !reflect.DeepEqual(fromWalk, want) {
						t.Fatalf("%s/%s query %d restriction %d:\ngather   %v\npostings %v\nwant     %v", backing, name, qi, ri, fromGather, fromWalk, want)
					}
					if stGather != stWalk {
						t.Fatalf("%s/%s query %d restriction %d: work counts %v by gather, %v by postings", backing, name, qi, ri, stGather, stWalk)
					}
				}
			}
		}
	}
}

// TestSourcesAllocationLean: with the per-query numerator map gone, a
// nomination into a warm buffer costs the iterative source no
// allocation at all, and the accumulator cycle the batch and grid
// sources share with it — acquire, add, drain — none either.
func TestSourcesAllocationLean(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; counts unstable")
	}
	rng := rand.New(rand.NewSource(93))
	db := testDB(t, rng, 400)
	src := NewRoIIndex(db, BuildSTR, 0).Iterative()
	q := db.Footprints[5]
	ctx := context.Background()
	buf, _ := src.Nominate(ctx, q, nil) // warm the pool and the buffer
	if len(buf) == 0 {
		t.Fatal("the query nominated nobody")
	}
	if avg := testing.AllocsPerRun(100, func() {
		buf, _ = src.Nominate(ctx, q, buf[:0])
	}); avg != 0 {
		t.Errorf("iterative Nominate allocates %v times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		acc := acquireAccumulator(db.Len())
		for u := 0; u < db.Len(); u += 3 {
			acc.add(u, 0.5)
			acc.add(u, 0.25)
		}
		buf = acc.drain(buf[:0])
	}); avg != 0 {
		t.Errorf("an accumulator cycle allocates %v times per run, want 0", avg)
	}
}
