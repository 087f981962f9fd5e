package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/engine"
	"geofootprint/internal/geom"
	"geofootprint/internal/hashring"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

const segTestRegions = `[{"rect":[0.1,0.1,0.5,0.5],"weight":1},{"rect":[0.3,0.3,0.7,0.7],"weight":2}]`

func segQuery(t *testing.T, s *Server, seg *segmentJSON, method string, k int) ([]map[string]interface{}, int) {
	t.Helper()
	code, body := segPost(t, s, seg, method, k)
	if code != http.StatusOK {
		return nil, code
	}
	var out []map[string]interface{}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad result body: %v", err)
	}
	return out, code
}

// Segment sub-queries partition the corpus: over all distinct replica
// tuples of a ring, each user is scored by exactly one segment, the
// union of segment answers merges to the unrestricted answer, and
// every method returns the identical segment ranking (scoring always
// goes through the canonical kernel).
func TestSegmentQueryPartitionsCorpus(t *testing.T) {
	db := testCorpus(t)
	s := New(db)
	shardIDs := []string{"s0", "s1", "s2", "s3"}
	ring, err := hashring.RingFromIDs(shardIDs, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, R := range []int{1, 2, 3} {
		R := R
		t.Run(fmt.Sprintf("R=%d", R), func(t *testing.T) {
			// The unrestricted answer, straight off the canonical scan.
			full, code := segQuery(t, s, nil, "", 10)
			if code != http.StatusOK {
				t.Fatalf("full query status %d", code)
			}

			var parts [][]search.Result
			covered := 0
			for _, tuple := range ring.Segments(R) {
				members := make([]string, len(tuple))
				for i, idx := range tuple {
					members[i] = shardIDs[idx]
				}
				seg := &segmentJSON{Shards: shardIDs, R: R, Members: members}
				res, code := segQuery(t, s, seg, "", 30)
				if code != http.StatusOK {
					t.Fatalf("segment %v status %d", members, code)
				}
				part := make([]search.Result, len(res))
				for i, r := range res {
					part[i] = search.Result{ID: int(r["id"].(float64)), Score: r["similarity"].(float64)}
				}
				covered += len(part)
				parts = append(parts, part)

				// Method choice must not change a segment's answer.
				for _, m := range []string{"linear", "iterative", "batch", "sketch"} {
					alt, code := segQuery(t, s, seg, m, 30)
					if code != http.StatusOK {
						t.Fatalf("segment %v method %s status %d", members, m, code)
					}
					if len(alt) != len(res) {
						t.Fatalf("segment %v method %s returned %d results, want %d", members, m, len(alt), len(res))
					}
					for i := range alt {
						if alt[i]["id"] != res[i]["id"] || alt[i]["similarity"] != res[i]["similarity"] {
							t.Fatalf("segment %v method %s diverged at rank %d", members, m, i)
						}
					}
				}
			}

			// No user may be claimed by two segments (k=30 covers the
			// whole 30-user corpus, so counts are exhaustive).
			seen := map[int]bool{}
			for _, part := range parts {
				for _, r := range part {
					if seen[r.ID] {
						t.Fatalf("user %d scored by two segments", r.ID)
					}
					seen[r.ID] = true
				}
			}

			// Merging the parts reproduces the unrestricted top-k exactly.
			merged := engine.MergeParts(parts, 10)
			if len(merged) != len(full) {
				t.Fatalf("merged %d results, full answer has %d", len(merged), len(full))
			}
			for i := range merged {
				if merged[i].ID != int(full[i]["id"].(float64)) || merged[i].Score != full[i]["similarity"].(float64) {
					t.Fatalf("rank %d: merged (%d,%v) != full (%v,%v)",
						i, merged[i].ID, merged[i].Score, full[i]["id"], full[i]["similarity"])
				}
			}
		})
	}
}

// Malformed segments are client errors, not silent empty answers: a
// `200 []` would merge at the router as a complete answer.
func TestSegmentQueryValidation(t *testing.T) {
	db := testCorpus(t)
	s := New(db)
	shardIDs := []string{"s0", "s1"}
	cases := []struct {
		name string
		seg  *segmentJSON
	}{
		{"zero R", &segmentJSON{Shards: shardIDs, R: 0, Members: []string{"s0"}}},
		{"no members", &segmentJSON{Shards: shardIDs, R: 1}},
		{"unknown member", &segmentJSON{Shards: shardIDs, R: 1, Members: []string{"ghost"}}},
		{"empty shard list", &segmentJSON{R: 1, Members: []string{"s0"}}},
		{"duplicate shard IDs", &segmentJSON{Shards: []string{"s0", "s0"}, R: 1, Members: []string{"s0"}}},
		// The router placed users with a smaller R than it sent (or the
		// other way round): the tuple cannot be one of this ring's.
		{"more members than R", &segmentJSON{Shards: shardIDs, R: 1, Members: []string{"s0", "s1"}}},
		{"duplicate members", &segmentJSON{Shards: shardIDs, R: 2, Members: []string{"s0", "s0"}}},
		{"R above the shard count", &segmentJSON{Shards: shardIDs, R: 3, Members: []string{"s0", "s1"}}},
		// A ring of 2 × 2^22 points would be built on the request path.
		{"vnodes above the ring bound", &segmentJSON{Shards: shardIDs, Vnodes: 1 << 22, R: 1, Members: []string{"s0"}}},
	}
	for _, tc := range cases {
		code, body := segPost(t, s, tc.seg, "", 5)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "bad segment") {
			t.Errorf("%s: status %d body %s, want 400 bad segment", tc.name, code, body)
		}
	}
}

// segCorpus is a corpus large enough that k=50 truncates: n users
// clustered so that a mid-plane query overlaps a good share of them.
func segCorpus(t *testing.T, n int) ([]int, []core.Footprint) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ids := make([]int, n)
	fps := make([]core.Footprint, n)
	for u := range ids {
		cx, cy := 0.2+rng.Float64()*0.5, 0.2+rng.Float64()*0.5
		var f core.Footprint
		for r := 0; r < 4; r++ {
			x, y := cx+rng.Float64()*0.1, cy+rng.Float64()*0.1
			f = append(f, core.Region{
				Rect:   geom.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05},
				Weight: 1 + float64(rng.Intn(3)),
			})
		}
		core.SortByMinX(f)
		ids[u], fps[u] = 1000+u*7, f
	}
	return ids, fps
}

// segPost sends the test query under seg and returns status and body.
func segPost(t *testing.T, s *Server, seg *segmentJSON, method string, k int) (int, []byte) {
	t.Helper()
	q := map[string]interface{}{"k": k, "regions": json.RawMessage(segTestRegions)}
	if method != "" {
		q["method"] = method
	}
	if seg != nil {
		q["segment"] = seg
	}
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := do(t, s.Handler(), "POST", "/v1/query", string(body))
	return rec.Code, rec.Body.Bytes()
}

// oracleBody is the /v1/query body LinearScan over the kept users
// would produce.
func oracleBody(t *testing.T, ids []int, fps []core.Footprint, keep func(id int) bool, k int) []byte {
	t.Helper()
	var subIDs []int
	var subFPs []core.Footprint
	for i, id := range ids {
		if keep(id) {
			subIDs, subFPs = append(subIDs, id), append(subFPs, fps[i])
		}
	}
	sub, err := store.FromFootprints("oracle", subIDs, subFPs)
	if err != nil {
		t.Fatal(err)
	}
	var regs []regionJSON
	if err := json.Unmarshal([]byte(segTestRegions), &regs); err != nil {
		t.Fatal(err)
	}
	qf, err := toFootprint(regs)
	if err != nil {
		t.Fatal(err)
	}
	out := []resultJSON{}
	for _, r := range search.NewLinearScan(sub).TopK(qf, k) {
		out = append(out, resultJSON{ID: r.ID, Similarity: r.Score})
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// prefixes lists every distinct non-empty head of the ring's replica
// tuples under R, shortest first within a tuple.
func prefixes(ring *hashring.Ring, R int) [][]int {
	var out [][]int
	seen := map[string]bool{}
	for _, tuple := range ring.Segments(R) {
		for n := 1; n <= len(tuple); n++ {
			if id := ring.SegmentID(tuple[:n]); !seen[id] {
				seen[id] = true
				out = append(out, tuple[:n])
			}
		}
	}
	return out
}

func hasPrefix(tuple, prefix []int) bool {
	for i, p := range prefix {
		if tuple[i] != p {
			return false
		}
	}
	return true
}

func segFor(shardIDs []string, R int, prefix []int) *segmentJSON {
	members := make([]string, len(prefix))
	for i, j := range prefix {
		members[i] = shardIDs[j]
	}
	return &segmentJSON{Shards: shardIDs, R: R, Members: members}
}

// For R ∈ {2,3}, every prefix of every replica tuple, every method and
// k ∈ {1,5,50}: the shard's answer is byte-identical to LinearScan over
// exactly the users whose tuple starts with the prefix.
func TestSegmentPrefixMatchesLinearScan(t *testing.T) {
	ids, fps := segCorpus(t, 400)
	db, err := store.FromFootprints("seg", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)
	shardIDs := []string{"s0", "s1", "s2", "s3"}
	ring, err := hashring.RingFromIDs(shardIDs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, R := range []int{2, 3} {
		for _, prefix := range prefixes(ring, R) {
			seg := segFor(shardIDs, R, prefix)
			keep := func(id int) bool { return hasPrefix(ring.ReplicaIndices(id, R), prefix) }
			for _, k := range []int{1, 5, 50} {
				want := oracleBody(t, ids, fps, keep, k)
				if n := bytes.Count(want, []byte(`"id"`)); len(prefix) == 1 && n != k {
					t.Fatalf("R=%d %v k=%d: oracle has %d results — corpus too thin for the test to bite", R, seg.Members, k, n)
				}
				for _, m := range []string{"user-centric", "linear", "iterative", "batch", "sketch"} {
					code, got := segPost(t, s, seg, m, k)
					if code != http.StatusOK {
						t.Fatalf("R=%d %v %s k=%d: status %d: %s", R, seg.Members, m, k, code, got)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("R=%d %v %s k=%d:\n got %s\nwant %s", R, seg.Members, m, k, got, want)
					}
				}
			}
		}
	}
}

// What makes the router's expand-on-failure exact: the answers of a
// prefix's children merge to the prefix's own answer, at every level of
// every tuple.
func TestSegmentChildrenMergeToParent(t *testing.T) {
	ids, fps := segCorpus(t, 400)
	db, err := store.FromFootprints("seg", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)
	shardIDs := []string{"s0", "s1", "s2", "s3", "s4"}
	ring, err := hashring.RingFromIDs(shardIDs, 0)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(R int, prefix []int, k int) []search.Result {
		code, body := segPost(t, s, segFor(shardIDs, R, prefix), "", k)
		if code != http.StatusOK {
			t.Fatalf("R=%d %v: status %d: %s", R, prefix, code, body)
		}
		var list []resultJSON
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		out := make([]search.Result, len(list))
		for i, r := range list {
			out[i] = search.Result{ID: r.ID, Score: r.Similarity}
		}
		return out
	}
	for _, R := range []int{2, 3} {
		all := prefixes(ring, R)
		for _, parent := range all {
			if len(parent) == R {
				continue
			}
			for _, k := range []int{1, 5, 50} {
				var parts [][]search.Result
				for _, child := range all {
					if len(child) == len(parent)+1 && hasPrefix(child, parent) {
						parts = append(parts, answer(R, child, k))
					}
				}
				got, want := engine.MergeParts(parts, k), answer(R, parent, k)
				if len(parts) == 0 || len(got) != len(want) {
					t.Fatalf("R=%d %v k=%d: %d children merged to %d results, parent has %d", R, parent, k, len(parts), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("R=%d %v k=%d rank %d: children %+v, parent %+v", R, parent, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Segment answers go through the result cache keyed by their range:
// two segments of one query never share an entry, a full-corpus entry
// is never served for a segment, and a repeated segment query is a hit.
func TestSegmentQueryCached(t *testing.T) {
	db := testCorpus(t)
	s := NewWithOptions(db, Options{CacheSize: 64})
	shardIDs := []string{"s0", "s1"}
	ring, err := hashring.RingFromIDs(shardIDs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the cache with the full answer; the two R=2 segments then
	// must still partition it between them.
	_, full := segPost(t, s, nil, "", 30)
	var bodies [][]byte
	total := 0
	for _, tuple := range ring.Segments(2) {
		code, body := segPost(t, s, segFor(shardIDs, 2, tuple), "", 30)
		if code != http.StatusOK {
			t.Fatalf("segment status %d: %s", code, body)
		}
		var list []resultJSON
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		total += len(list)
		bodies = append(bodies, body)
	}
	var fullList []resultJSON
	if err := json.Unmarshal(full, &fullList); err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 || bytes.Equal(bodies[0], bodies[1]) || total != len(fullList) || total == 0 {
		t.Fatalf("segments %s and %s do not partition the full answer %s", bodies[0], bodies[1], full)
	}
	st, _ := s.CacheStats()
	if st.Misses != 3 || st.Hits != 0 || st.Entries != 3 {
		t.Fatalf("after full + 2 segments: %+v, want 3 misses, 3 entries, no hit", st)
	}
	for i, tuple := range ring.Segments(2) {
		if _, body := segPost(t, s, segFor(shardIDs, 2, tuple), "", 30); !bytes.Equal(body, bodies[i]) {
			t.Fatalf("repeated segment %v answered %s, first time %s", tuple, body, bodies[i])
		}
	}
	if st, _ = s.CacheStats(); st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("after repeating both segments: %+v, want 2 hits, 3 misses", st)
	}
}

// The segment column is built once per (epoch, ring, R): a second
// segment query on the same epoch looks no user up on the ring, a
// publish or a changed shard list (rolling map change) rebuilds it —
// and the rebuilt column places a user added in between.
func TestSegmentColumnMemoised(t *testing.T) {
	db := testCorpus(t)
	s := New(db)
	users := uint64(db.Len())
	shardIDs := []string{"s0", "s1", "s2"}
	seg := &segmentJSON{Shards: shardIDs, R: 2, Members: []string{"s0"}}
	lookups := func() uint64 { return s.segTables.table.Ring().Lookups() }

	if code, body := segPost(t, s, seg, "", 5); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if got := lookups(); got != users {
		t.Fatalf("first segment query: %d ring lookups, want one per user (%d)", got, users)
	}
	for _, members := range [][]string{{"s0"}, {"s1"}, {"s2", "s0"}} {
		segPost(t, s, &segmentJSON{Shards: shardIDs, R: 2, Members: members}, "linear", 5)
	}
	if got := lookups(); got != users {
		t.Fatalf("later segment queries on the same epoch looked users up: %d lookups, want %d", got, users)
	}

	// A publish: the new epoch's column includes the new user, in the
	// one segment its tuple names.
	const newID = 424242
	if rec, _ := do(t, s.Handler(), "PUT", "/v1/users/424242", segTestRegions); rec.Code != http.StatusOK {
		t.Fatalf("PUT status %d", rec.Code)
	}
	ring := s.segTables.table.Ring()
	before := ring.Lookups()
	owner := ring.ReplicaIndices(newID, 2)
	found := 0
	for i, id := range shardIDs {
		_, body := segPost(t, s, &segmentJSON{Shards: shardIDs, R: 2, Members: []string{id}}, "", 40)
		if has := strings.Contains(string(body), `"id":424242`); has != (i == owner[0]) {
			t.Fatalf("user %d (tuple %v) in segment %s: %v", newID, owner, id, has)
		} else if has {
			found++
		}
	}
	if got := ring.Lookups() - before; found != 1 || got != 1+users+1 {
		t.Fatalf("after a publish: found in %d segments, %d ring lookups, want 1 and %d (the test's own + one per user)", found, got, 1+users+1)
	}

	// A changed shard list: a new ring, a new table, a new column.
	seg4 := &segmentJSON{Shards: append(shardIDs, "s3"), R: 2, Members: []string{"s3"}}
	if code, body := segPost(t, s, seg4, "", 5); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if s.segTables.table.Ring() == ring || lookups() != users+1 {
		t.Fatalf("changed shard list: ring reused or column not rebuilt (%d lookups, want %d)", lookups(), users+1)
	}
}

// A segment query honours context cancellation like every other query
// path: a dead context is a 503-or-nothing, never an empty answer.
func TestSegmentQueryCancellation(t *testing.T) {
	db := testCorpus(t)
	s := New(db)
	ep, v := s.acquire()
	defer ep.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := core.Footprint{{Rect: geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, Weight: 1}}
	in, err := s.restrict(v, &segmentJSON{Shards: []string{"s0"}, R: 1, Members: []string{"s0"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.TopKCachedIn(ctx, nil, ep.Seq(), "", f, 5, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled segment query returned %v", err)
	}
}

// The table memo and the per-epoch column are shared by every query
// in flight: queries under two rings race each other and a stream of
// publishes (run under -race by `make cluster-chaos`).
func TestSegmentQueriesConcurrent(t *testing.T) {
	s := NewWithOptions(testCorpus(t), Options{CacheSize: 16})
	rings := [][]string{{"s0", "s1", "s2"}, {"s0", "s1", "s2", "s3"}}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ids := rings[(g+i)%2]
				seg := &segmentJSON{Shards: ids, R: 2, Members: []string{ids[i%len(ids)]}}
				if code, body := segPost(t, s, seg, []string{"", "sketch", "batch"}[i%3], 5); code != http.StatusOK {
					t.Errorf("goroutine %d query %d: status %d: %s", g, i, code, body)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if rec, _ := do(t, s.Handler(), "PUT", fmt.Sprintf("/v1/users/%d", 9000+i), segTestRegions); rec.Code != http.StatusOK {
			t.Errorf("PUT %d: status %d", i, rec.Code)
		}
	}
	wg.Wait()
}
