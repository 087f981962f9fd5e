package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"geofootprint/internal/cache"
	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

func cachedTestDB(t *testing.T, users int) *store.FootprintDB {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	ids := make([]int, users)
	fps := make([]core.Footprint, users)
	for u := 0; u < users; u++ {
		ids[u] = u + 1
		f := core.Footprint{}
		for r := 0; r < 4; r++ {
			x, y := rng.Float64()*0.9, rng.Float64()*0.9
			f = append(f, core.Region{
				Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.06, MaxY: y + 0.06},
				Weight: 1 + rng.Float64(),
			})
		}
		fps[u] = f
	}
	db, err := store.FromFootprints("cached", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// Cached answers must be byte-identical to uncached computation for
// every search method: what the engine computed is LinearScan's answer,
// and the cache returns exactly that — verified per method via a
// miss/hit/direct triangle, with the sketch layer on and off, for k
// below and above the number of positive users, over the whole corpus
// and over a restriction (which is part of the key).
func TestCachedResultsByteIdenticalAllMethods(t *testing.T) {
	ctx := context.Background()
	for _, sketches := range []bool{true, false} {
		db := cachedTestDB(t, 60)
		if sketches {
			db.EnableSketches(0, 1)
		}
		q := append(core.Footprint(nil), db.Footprints[7]...)
		segOf := make([]uint16, db.Len())
		for u := range segOf {
			segOf[u] = uint16(u % 4)
		}
		v := NewView(db, 2)
		for _, name := range []string{"user-centric", "linear", "iterative", "batch", "sketch"} {
			eng, err := v.Engine(name)
			if name == "sketch" && !sketches {
				if err == nil {
					t.Fatal("Engine(\"sketch\") accepted a database without a sketch layer")
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			c := cache.New(16)
			for _, k := range []int{1, 10, db.Len() + 1} {
				for _, in := range []*search.Restrict{nil, {Partition: "quarters", SegOf: segOf, Lo: 1, Hi: 3}} {
					direct, err := eng.TopKInCtx(ctx, q, k, in)
					if err != nil || len(direct) == 0 {
						t.Fatalf("%s k=%d: direct result %v, err=%v", name, k, direct, err)
					}
					if want := restrictedOracle(db, q, k, in); !reflect.DeepEqual(direct, want) {
						t.Fatalf("%s sketches=%v k=%d restricted=%v: direct result diverges from LinearScan\ngot:  %v\nwant: %v",
							name, sketches, k, in != nil, direct, want)
					}
					key := cache.Key{Epoch: 1, Method: name, K: k, Query: cache.FootprintKey(q)}
					if in != nil {
						key.Partition, key.Lo, key.Hi = in.Partition, in.Lo, in.Hi
					}
					compute := func() (any, error) { return eng.TopKInCtx(ctx, q, k, in) }

					miss, hit1, err := c.GetOrCompute(ctx, key, compute)
					if err != nil || hit1 {
						t.Fatalf("%s: miss path hit=%v err=%v", name, hit1, err)
					}
					hit, hit2, err := c.GetOrCompute(ctx, key, compute)
					if err != nil || !hit2 {
						t.Fatalf("%s: hit path hit=%v err=%v", name, hit2, err)
					}
					if !reflect.DeepEqual(miss.([]search.Result), direct) {
						t.Fatalf("%s: computed-through-cache result diverges from direct", name)
					}
					if !reflect.DeepEqual(hit.([]search.Result), direct) {
						t.Fatalf("%s: cached result diverges from direct", name)
					}
				}
			}
		}
	}
}

// View.TopKCached is the serving-path wrapper: transparent when the
// cache is nil, hit-reporting when warm, and one entry for the three
// names of the user-centric engine.
func TestViewTopKCached(t *testing.T) {
	db := cachedTestDB(t, 50)
	db.EnableSketches(0, 1)
	v := NewView(db, 2)
	q := append(core.Footprint(nil), db.Footprints[3]...)
	ctx := context.Background()

	bare, _, err := v.TopKCached(ctx, nil, 1, "", q, 8)
	if err != nil || len(bare) == 0 {
		t.Fatalf("nil-cache path: res=%v err=%v", bare, err)
	}

	c := cache.New(16)
	// "" and "sketch" resolve to the canonical "user-centric" key, so
	// only the very first call computes.
	wantFirstHit := map[string]bool{"": false, "user-centric": true, "sketch": true}
	for _, method := range []string{"", "user-centric", "sketch"} {
		first, hit, err := v.TopKCached(ctx, c, 1, method, q, 8)
		if err != nil || hit != wantFirstHit[method] {
			t.Fatalf("method %q first call: hit=%v err=%v", method, hit, err)
		}
		second, hit, err := v.TopKCached(ctx, c, 1, method, q, 8)
		if err != nil || !hit {
			t.Fatalf("method %q second call: hit=%v err=%v", method, hit, err)
		}
		if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(first, bare) {
			t.Fatalf("method %q cached answers diverge", method)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("misses = %d, entries = %d, want 1 and 1 (\"\", \"user-centric\" and \"sketch\" must share a key)", st.Misses, st.Entries)
	}
	// The name "sketch" still insists on the layer.
	if _, err := NewView(cachedTestDB(t, 5), 1).Engine("sketch"); err == nil {
		t.Fatal("Engine(\"sketch\") accepted a database without a sketch layer")
	}
	if _, err := v.Engine("quantum"); err == nil {
		t.Fatal("unknown method accepted")
	}
}
