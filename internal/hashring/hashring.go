// Package hashring assigns user IDs to shards with consistent
// hashing, the partitioning layer of the distributed serving plane.
//
// The workload is embarrassingly partitionable by user: every search
// method scores whole users, and a user's similarity to a query
// depends only on that user's own footprint and norm. So the corpus
// can be split user-wise across N geoserve shards and a coordinator
// (cmd/georouter) can scatter a top-k query to all shards and merge
// the partial heaps — with results bit-identical to a single node
// holding the union (see internal/router).
//
// Two properties matter and both are guaranteed here:
//
//   - Reproducibility. Assignments are a pure function of the shard
//     map (IDs + replica count) and the user ID: FNV-1a over
//     deterministic byte strings, ties broken by shard ID, no
//     process-local state. The same shard-map file yields the same
//     placement on every host, every run — which is what lets an
//     offline splitter (geobench -exp failover, the ledger's corpus
//     builder) and a live router agree on who owns whom.
//   - Stability. Consistent hashing moves only ~1/N of the users when
//     a shard is added or removed, so resharding is incremental
//     rather than a full reshuffle.
//
// The shard map itself is a static JSON file (see Map): explicit,
// versioned, diffable in review, and free of any coordination
// service. Operators scale by editing the file and restarting the
// router.
package hashring

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per shard when the map
// does not specify one. 128 vnodes keeps the load imbalance across
// shards within a few percent for the shard counts this system
// targets (single digits to low hundreds).
const DefaultReplicas = 128

// MapVersion is the current shard-map file format version.
const MapVersion = 1

// MaxRingPoints bounds a ring's virtual nodes, shards × replicas. A
// shard rebuilds the ring on its request path from the shard list and
// vnode count a segment query carries, so the count must be bounded
// where every map is checked: 65 536 points is 512 shards at
// DefaultReplicas, 64 times this system's largest target.
const MaxRingPoints = 1 << 16

// Shard is one geoserve instance in the map: a stable identifier
// (used for hashing, logging and /healthz cross-checks) and the base
// URL the router dials.
type Shard struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Map is the static shard-map file format: the complete, versioned
// description of the cluster topology. Assignments are reproducible
// from this file alone.
//
//	{
//	  "version": 1,
//	  "replicas": 128,
//	  "shards": [
//	    {"id": "shard-0", "addr": "http://10.0.0.1:8080"},
//	    {"id": "shard-1", "addr": "http://10.0.0.2:8080"}
//	  ]
//	}
type Map struct {
	Version int `json:"version"`
	// Replicas is the virtual-node count per shard; 0 selects
	// DefaultReplicas. Changing it reshuffles assignments, so it is
	// part of the persisted format, not a router flag.
	Replicas int     `json:"replicas,omitempty"`
	Shards   []Shard `json:"shards"`
}

// Validate checks the structural invariants the router and ring rely
// on: supported version, at least one shard, at most MaxRingPoints
// virtual nodes, and non-empty, unique shard IDs and addresses. A
// duplicate shard ID would make ownership ambiguous (two shards
// claiming the same hash points), which is exactly the
// misconfiguration the router's /healthz cross-check exists to catch
// at runtime — here it is caught at load time.
func (m *Map) Validate() error {
	if m.Version != MapVersion {
		return fmt.Errorf("hashring: unsupported shard-map version %d (want %d)", m.Version, MapVersion)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("hashring: shard map has no shards")
	}
	if m.Replicas < 0 {
		return fmt.Errorf("hashring: negative replica count %d", m.Replicas)
	}
	if m.replicas() > MaxRingPoints/len(m.Shards) {
		return fmt.Errorf("hashring: %d shards × %d replicas exceed %d ring points", len(m.Shards), m.replicas(), MaxRingPoints)
	}
	ids := make(map[string]bool, len(m.Shards))
	addrs := make(map[string]bool, len(m.Shards))
	for i, s := range m.Shards {
		if s.ID == "" {
			return fmt.Errorf("hashring: shard %d has an empty id", i)
		}
		if s.Addr == "" {
			return fmt.Errorf("hashring: shard %q has an empty addr", s.ID)
		}
		if ids[s.ID] {
			return fmt.Errorf("hashring: duplicate shard id %q", s.ID)
		}
		if addrs[s.Addr] {
			return fmt.Errorf("hashring: duplicate shard addr %q (shard %q)", s.Addr, s.ID)
		}
		ids[s.ID] = true
		addrs[s.Addr] = true
	}
	return nil
}

// replicas returns the effective virtual-node count.
func (m *Map) replicas() int {
	if m.Replicas <= 0 {
		return DefaultReplicas
	}
	return m.Replicas
}

// LoadMap reads and validates a shard-map file.
func LoadMap(path string) (*Map, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read-only open; decode errors surface below
	m, err := DecodeMap(f)
	if err != nil {
		return nil, fmt.Errorf("hashring: %s: %w", path, err)
	}
	return m, nil
}

// DecodeMap decodes and validates a shard map from JSON. Unknown
// fields are rejected so a typo'd key (e.g. "replica") fails loudly
// instead of silently changing placement.
func DecodeMap(r io.Reader) (*Map, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m Map
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// EncodeMap writes m as indented JSON — the canonical on-disk form.
func EncodeMap(w io.Writer, m *Map) error {
	if err := m.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// point is one virtual node on the ring.
type point struct {
	hash  uint64
	shard int // index into Ring.shards
}

// Ring is an immutable consistent-hash ring built from a validated
// Map. Safe for concurrent use.
type Ring struct {
	shards []Shard
	points []point
}

// NewRing builds the ring: replicas virtual nodes per shard, each at
// FNV-1a("<shard-id>#<replica>"), sorted by hash with ties broken by
// shard index (shard order in the map is part of the deterministic
// input, and IDs are unique, so ties cannot flip between runs).
func NewRing(m *Map) (*Ring, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	r := &Ring{
		shards: append([]Shard(nil), m.Shards...),
		points: make([]point, 0, len(m.Shards)*m.replicas()),
	}
	for si, s := range r.shards {
		for v := 0; v < m.replicas(); v++ {
			h := fnv.New64a()
			io.WriteString(h, s.ID)            // fnv.Write cannot fail
			io.WriteString(h, "#")             // fnv.Write cannot fail
			io.WriteString(h, strconv.Itoa(v)) // fnv.Write cannot fail
			r.points = append(r.points, point{hash: mix64(h.Sum64()), shard: si})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that
// spreads FNV's weakly mixed low bits over the whole ring. Without it,
// vnode hashes of short labels cluster badly enough to skew the load
// split past 2x at 8 shards. Fixed constants — part of the persisted
// assignment function, never change them.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashUser hashes a user ID to a ring position: FNV-1a over the
// little-endian 8-byte encoding, finalized with mix64.
// Process-independent by construction.
func hashUser(user int) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(user))
	h := fnv.New64a()
	h.Write(b[:]) // fnv.Write cannot fail
	return mix64(h.Sum64())
}

// pointOf locates the first virtual node clockwise from user's hash.
func (r *Ring) pointOf(user int) int {
	h := hashUser(user)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return i
}

// clampR bounds a replication factor to [1, N]: replication can never
// place more copies than there are shards.
func (r *Ring) clampR(R int) int {
	if R < 1 {
		return 1
	}
	if R > len(r.shards) {
		return len(r.shards)
	}
	return R
}

// successorWalk collects the first R distinct shards clockwise from
// point p — the ring's natural successor walk. The walk is a pure
// function of the shard IDs (which fully determine the points), so
// replica placement survives re-addressing exactly like ownership
// does, and an offline splitter and a live router agree on every
// user's replica set.
func (r *Ring) successorWalk(p, R int) []int {
	out := make([]int, 0, R)
	seen := 0 // bitmask would cap shards; a small linear scan is fine
	for i := 0; seen < R && i < len(r.points); i++ {
		s := r.points[(p+i)%len(r.points)].shard
		dup := false
		for _, have := range out {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
			seen++
		}
	}
	return out
}

// ReplicaIndices returns the ordered replica set for user under
// replication factor R: the owning shard (that of the first virtual
// node clockwise from the user's hash) first, then the next R-1
// distinct shards clockwise from the user's ring position. R is
// clamped to [1, N].
//
// Because the walk starts at the user's successor point, re-running it
// with a larger R only appends shards — growing the replication factor
// never moves an existing copy.
func (r *Ring) ReplicaIndices(user, R int) []int {
	return r.successorWalk(r.pointOf(user), r.clampR(R))
}

// Segments enumerates the distinct ordered replica tuples the ring
// induces under replication factor R: every user's ReplicaIndices is
// one of the returned tuples, and every returned tuple is the walk of
// at least one ring arc. Each user belongs to exactly one segment, so
// answers restricted to disjoint sets of segments merge without
// counting anyone twice.
//
// The result is deterministic: tuples are sorted lexicographically by
// shard index, so the tuples sharing a prefix are contiguous. Its size
// is bounded by the number of distinct successor patterns among the
// ring's arcs — for single-digit shard counts, a handful of tuples,
// not N^R.
func (r *Ring) Segments(R int) [][]int {
	segs, _ := r.segments(r.clampR(R))
	return segs
}

// segments returns the sorted segment list for an already clamped R
// and every ring point's successor walk.
func (r *Ring) segments(R int) (segs, walks [][]int) {
	walks = make([][]int, len(r.points))
	seen := make(map[string]bool)
	for p := range r.points {
		walks[p] = r.successorWalk(p, R)
		if key := tupleKey(walks[p]); !seen[key] {
			seen[key] = true
			segs = append(segs, walks[p])
		}
	}
	sort.Slice(segs, func(i, j int) bool { return compareTuples(segs[i], segs[j]) < 0 })
	return segs, walks
}

// tupleKey is a map key for an ordered shard-index tuple.
func tupleKey(idx []int) string {
	var b []byte
	for _, s := range idx {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	return string(b)
}

// compareTuples orders a against b lexicographically over the first
// len(b) members; a must be at least that long.
func compareTuples(a, b []int) int {
	for x := range b {
		if a[x] != b[x] {
			if a[x] < b[x] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// SegmentTable is the segment list of one ring under one replication
// factor, indexed both ways: from a user to the position of its
// replica tuple in the sorted list, and from a tuple prefix to the
// contiguous range of positions it covers. Immutable; safe for
// concurrent use.
type SegmentTable struct {
	ring    *Ring
	segs    [][]int
	ofPoint []uint16
}

// SegmentTable builds the table for replication factor R (clamped to
// [1, N]). Positions are 16-bit because a serving shard keeps one per
// user; a ring with more distinct replica tuples than that is refused.
func (r *Ring) SegmentTable(R int) (*SegmentTable, error) {
	segs, walks := r.segments(r.clampR(R))
	if len(segs) > math.MaxUint16 {
		return nil, fmt.Errorf("hashring: %d ring segments at R=%d exceed the %d a segment table holds", len(segs), R, math.MaxUint16)
	}
	t := &SegmentTable{ring: r, segs: segs, ofPoint: make([]uint16, len(walks))}
	for p, w := range walks {
		t.ofPoint[p] = uint16(sort.Search(len(segs), func(i int) bool { return compareTuples(segs[i], w) >= 0 }))
	}
	return t, nil
}

// Segments returns the sorted segment list — Ring.Segments for the
// table's R. The returned slices are shared — read-only.
func (t *SegmentTable) Segments() [][]int { return t.segs }

// AppendColumn appends to col, for every user in order, the position
// of the user's replica tuple in Segments — one ring lookup per user and
// no walk — and returns the extended slice.
func (t *SegmentTable) AppendColumn(col []uint16, users []int) []uint16 {
	for _, u := range users {
		col = append(col, t.ofPoint[t.ring.pointOf(u)])
	}
	return col
}

// PrefixRange returns the positions [lo, hi) of the segments whose
// tuple starts with prefix, in order. A full-length prefix selects the
// one segment with that tuple; a prefix no tuple starts with — or one
// longer than R — selects nothing (lo == hi).
func (t *SegmentTable) PrefixRange(prefix []int) (lo, hi int) {
	if len(t.segs) == 0 || len(prefix) > len(t.segs[0]) {
		return 0, 0
	}
	lo = sort.Search(len(t.segs), func(i int) bool { return compareTuples(t.segs[i], prefix) >= 0 })
	hi = sort.Search(len(t.segs), func(i int) bool { return compareTuples(t.segs[i], prefix) > 0 })
	return lo, hi
}

// SegmentID names a replica tuple for wire formats and partial-result
// reporting: the member shard IDs joined with "+", owner first. With
// R=1 this is exactly the owning shard's ID, so single-replica
// deployments keep the PR 8 "missing shard" vocabulary unchanged.
func (r *Ring) SegmentID(tuple []int) string {
	var b []byte
	for i, s := range tuple {
		if i > 0 {
			b = append(b, '+')
		}
		b = append(b, r.shards[s].ID...)
	}
	return string(b)
}

// RingFromIDs builds a ring from bare shard IDs with synthetic
// addresses. Shard-side segment filtering needs only identity — the
// assignment function never looks at addresses — so a geoserve shard
// can reconstruct the router's ring from the ID list a query carries.
func RingFromIDs(ids []string, replicas int) (*Ring, error) {
	m := &Map{Version: MapVersion, Replicas: replicas}
	for i, id := range ids {
		m.Shards = append(m.Shards, Shard{ID: id, Addr: "ring://" + strconv.Itoa(i)})
	}
	return NewRing(m)
}

// Shards returns the ring's shards in map order. The returned slice
// is shared — read-only.
func (r *Ring) Shards() []Shard { return r.shards }
