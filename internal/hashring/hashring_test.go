package hashring

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testMap(n int) *Map {
	m := &Map{Version: MapVersion}
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, Shard{
			ID:   fmt.Sprintf("shard-%d", i),
			Addr: fmt.Sprintf("http://127.0.0.1:%d", 9000+i),
		})
	}
	return m
}

// Assignments must be a pure function of the shard map: two rings
// built from equal maps agree on every user, and shard order in the
// file does not matter (hash points are labelled by shard ID).
func TestRingDeterministic(t *testing.T) {
	m := testMap(4)
	r1, err := NewRing(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(testMap(4))
	if err != nil {
		t.Fatal(err)
	}
	perm := &Map{Version: MapVersion, Shards: []Shard{m.Shards[2], m.Shards[0], m.Shards[3], m.Shards[1]}}
	r3, err := NewRing(perm)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10000; u++ {
		a := r1.shards[r1.ReplicaIndices(u, 1)[0]].ID
		if b := r2.shards[r2.ReplicaIndices(u, 1)[0]].ID; a != b {
			t.Fatalf("user %d: run 1 says %s, run 2 says %s", u, a, b)
		}
		if c := r3.shards[r3.ReplicaIndices(u, 1)[0]].ID; a != c {
			t.Fatalf("user %d: map order changed owner %s -> %s", u, a, c)
		}
	}
}

// With enough virtual nodes the load split stays near uniform: no
// shard more than 2x off the fair share over a large user range.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		r, err := NewRing(testMap(n))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		const users = 100000
		for u := 1; u <= users; u++ {
			counts[r.ReplicaIndices(u, 1)[0]]++
		}
		fair := float64(users) / float64(n)
		for i, c := range counts {
			if ratio := float64(c) / fair; ratio < 0.5 || ratio > 2.0 {
				t.Errorf("n=%d shard %d holds %d users (%.2fx fair share)", n, i, c, ratio)
			}
		}
	}
}

// Consistent hashing's point: growing the cluster from N to N+1
// shards moves roughly 1/(N+1) of the users and never moves a user
// between two pre-existing shards.
func TestRingStability(t *testing.T) {
	const users = 50000
	r4, err := NewRing(testMap(4))
	if err != nil {
		t.Fatal(err)
	}
	r5, err := NewRing(testMap(5))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for u := 1; u <= users; u++ {
		a, b := r4.shards[r4.ReplicaIndices(u, 1)[0]].ID, r5.shards[r5.ReplicaIndices(u, 1)[0]].ID
		if a != b {
			moved++
			if b != "shard-4" {
				t.Fatalf("user %d moved between pre-existing shards %s -> %s", u, a, b)
			}
		}
	}
	frac := float64(moved) / users
	if math.Abs(frac-1.0/5) > 0.1 {
		t.Errorf("adding a 5th shard moved %.1f%% of users, want ~20%%", 100*frac)
	}
}

func TestMapValidate(t *testing.T) {
	cases := []struct {
		name string
		m    *Map
		want string
	}{
		{"wrong version", &Map{Version: 2, Shards: testMap(1).Shards}, "version"},
		{"no shards", &Map{Version: MapVersion}, "no shards"},
		{"empty id", &Map{Version: MapVersion, Shards: []Shard{{Addr: "http://x"}}}, "empty id"},
		{"empty addr", &Map{Version: MapVersion, Shards: []Shard{{ID: "a"}}}, "empty addr"},
		{"dup id", &Map{Version: MapVersion, Shards: []Shard{{ID: "a", Addr: "http://x"}, {ID: "a", Addr: "http://y"}}}, "duplicate shard id"},
		{"dup addr", &Map{Version: MapVersion, Shards: []Shard{{ID: "a", Addr: "http://x"}, {ID: "b", Addr: "http://x"}}}, "duplicate shard addr"},
		{"negative replicas", &Map{Version: MapVersion, Replicas: -1, Shards: testMap(1).Shards}, "negative replica"},
		{"too many replicas", &Map{Version: MapVersion, Replicas: MaxRingPoints/2 + 1, Shards: testMap(2).Shards}, "ring points"},
		{"huge replicas", &Map{Version: MapVersion, Replicas: math.MaxInt, Shards: testMap(3).Shards}, "ring points"},
		{"too many shards", &Map{Version: MapVersion, Shards: testMap(MaxRingPoints/DefaultReplicas + 1).Shards}, "ring points"},
	}
	for _, c := range cases {
		err := c.m.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	if err := testMap(3).Validate(); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
	if err := (&Map{Version: MapVersion, Replicas: MaxRingPoints / 2, Shards: testMap(2).Shards}).Validate(); err != nil {
		t.Errorf("a map of exactly MaxRingPoints points rejected: %v", err)
	}
}

// The file format round-trips, rejects unknown fields, and a loaded
// map yields the same assignments as the in-memory one it came from.
func TestMapFileRoundTrip(t *testing.T) {
	m := testMap(3)
	m.Replicas = 64
	var buf bytes.Buffer
	if err := EncodeMap(&buf, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shards.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMap(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replicas != 64 || len(got.Shards) != 3 || got.Shards[1] != m.Shards[1] {
		t.Fatalf("round trip mangled the map: %+v", got)
	}
	r1, _ := NewRing(m)
	r2, _ := NewRing(got)
	for u := 0; u < 5000; u++ {
		if r1.shards[r1.ReplicaIndices(u, 1)[0]] != r2.shards[r2.ReplicaIndices(u, 1)[0]] {
			t.Fatalf("user %d: owner changed across save/load", u)
		}
	}

	if _, err := DecodeMap(strings.NewReader(`{"version":1,"replica":9,"shards":[{"id":"a","addr":"http://x"}]}`)); err == nil {
		t.Fatal("unknown field accepted silently")
	}
	if _, err := LoadMap(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Replica sets are the successor walk: the owner comes first, members
// are distinct, R is clamped to [1, N], and growing R only appends —
// it never moves an existing copy.
func TestReplicaIndices(t *testing.T) {
	r, err := NewRing(testMap(4))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20000; u++ {
		prev := []int{}
		for R := 1; R <= 6; R++ {
			got := r.ReplicaIndices(u, R)
			wantLen := R
			if wantLen > 4 {
				wantLen = 4
			}
			if len(got) != wantLen {
				t.Fatalf("user %d R=%d: %d replicas, want %d", u, R, len(got), wantLen)
			}
			if got[0] != r.ReplicaIndices(u, 1)[0] {
				t.Fatalf("user %d R=%d: first replica %d != owner %d", u, R, got[0], r.ReplicaIndices(u, 1)[0])
			}
			seen := map[int]bool{}
			for _, s := range got {
				if seen[s] {
					t.Fatalf("user %d R=%d: duplicate replica %d in %v", u, R, s, got)
				}
				seen[s] = true
			}
			for i := range prev {
				if prev[i] != got[i] {
					t.Fatalf("user %d: growing R moved replica %d: %v -> %v", u, i, prev, got)
				}
			}
			prev = got
		}
	}
	if got := r.ReplicaIndices(7, 0); len(got) != 1 {
		t.Fatalf("R=0 not clamped to 1: %v", got)
	}
}

// Replica placement, like ownership, is a pure function of the shard
// IDs: two rings over the same IDs agree on every replica set, and a
// ring rebuilt from bare IDs (the shard-side path) matches the
// router's addressed ring.
func TestReplicaDeterministic(t *testing.T) {
	r1, err := NewRing(testMap(5))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 5)
	for i, s := range r1.Shards() {
		ids[i] = s.ID
	}
	r2, err := RingFromIDs(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10000; u++ {
		a := r1.ReplicaIndices(u, 3)
		b := r2.ReplicaIndices(u, 3)
		if len(a) != len(b) {
			t.Fatalf("user %d: replica sets differ: %v vs %v", u, a, b)
		}
		for i := range a {
			if r1.Shards()[a[i]].ID != r2.Shards()[b[i]].ID {
				t.Fatalf("user %d: replica %d differs across rings: %v vs %v", u, i, a, b)
			}
		}
	}
}

// Segments covers the user space exactly: every user's replica tuple
// is one of the enumerated segments, segment IDs are unique, and with
// R=1 the segments are exactly the shard IDs (the PR 8 vocabulary).
func TestSegmentsCoverUsers(t *testing.T) {
	r, err := NewRing(testMap(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, R := range []int{1, 2, 3} {
		segs := r.Segments(R)
		byID := map[string]bool{}
		for _, s := range segs {
			id := r.SegmentID(s)
			if byID[id] {
				t.Fatalf("R=%d: duplicate segment id %q", R, id)
			}
			byID[id] = true
		}
		for u := 0; u < 20000; u++ {
			key := r.SegmentID(r.ReplicaIndices(u, R))
			if !byID[key] {
				t.Fatalf("R=%d: user %d's tuple %q not enumerated in %d segments", R, u, key, len(segs))
			}
		}
		if R == 1 {
			if len(segs) != 4 {
				t.Fatalf("R=1: %d segments, want 4 (one per shard)", len(segs))
			}
			for _, s := range segs {
				if len(s) != 1 || r.SegmentID(s) != r.Shards()[s[0]].ID {
					t.Fatalf("R=1 segment %v not a bare shard ID", s)
				}
			}
		}
	}
}

// The segment table agrees with the walks it replaces: a user's column
// entry is the position of its replica tuple in Segments, a prefix's
// range holds exactly the tuples starting with it.
func TestSegmentTable(t *testing.T) {
	r, err := NewRing(testMap(5))
	if err != nil {
		t.Fatal(err)
	}
	users := make([]int, 5000)
	for i := range users {
		users[i] = i * 3
	}
	for _, R := range []int{1, 2, 3, 9} {
		tab, err := r.SegmentTable(R)
		if err != nil {
			t.Fatal(err)
		}
		segs := tab.Segments()
		col := tab.AppendColumn(nil, users)
		for i, u := range users {
			if want := r.SegmentID(r.ReplicaIndices(u, R)); r.SegmentID(segs[col[i]]) != want {
				t.Fatalf("R=%d user %d: column says %q, walk says %q", R, u, r.SegmentID(segs[col[i]]), want)
			}
		}
		covered := 0
		for _, tuple := range segs {
			for n := 1; n <= len(tuple); n++ {
				lo, hi := tab.PrefixRange(tuple[:n])
				for i, s := range segs {
					in := true
					for x := 0; x < n; x++ {
						in = in && s[x] == tuple[x]
					}
					if in != (i >= lo && i < hi) {
						t.Fatalf("R=%d prefix %v: range [%d,%d) disagrees with segment %d %v", R, tuple[:n], lo, hi, i, s)
					}
				}
				if n == len(tuple) {
					covered += hi - lo
				}
			}
		}
		if covered != len(segs) {
			t.Fatalf("R=%d: full-length prefixes cover %d of %d segments", R, covered, len(segs))
		}
		if lo, hi := tab.PrefixRange([]int{0, 0}); lo != hi {
			t.Fatalf("R=%d: a tuple no walk produces selected [%d,%d)", R, lo, hi)
		}
		if lo, hi := tab.PrefixRange(make([]int, len(segs[0])+1)); lo != hi {
			t.Fatalf("R=%d: an over-long prefix selected [%d,%d)", R, lo, hi)
		}
	}
}
