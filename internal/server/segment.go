// Segment-restricted queries: the shard-side half of replicated
// serving.
//
// With replication factor R > 1, a shard's corpus is the union of
// several ring segments (one per distinct replica tuple it belongs
// to), and two replicas of the same segment hold the same users. A
// router that merged two replicas' full-corpus answers would count
// shared users twice — topk.Collector does not deduplicate by ID, by
// design. So the router never asks a replicated shard for its whole
// corpus: every leg names the tuples it wants, and the shard restricts
// the answer to the users whose replica tuple is one of them. Each user
// then appears in exactly one leg's answer, and the merge is exact.
//
// The segment is self-describing: the query carries the full shard-ID
// list and vnode count of the router's map, so the shard rebuilds the
// identical ring (hashring placement is a pure function of shard IDs)
// and evaluates membership locally — no second config file to drift.
//
// Membership is a column, not a per-query computation: the ring's
// segment list is sorted, so the tuples starting with the members a leg
// names are a contiguous range of positions [lo, hi), and the server
// keeps, for the ring last asked for, the position of every user's
// tuple. A segment query is then the ordinary query — any method, the
// result cache — with one range test per candidate (search.Restrict).
package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"geofootprint/internal/engine"
	"geofootprint/internal/hashring"
	"geofootprint/internal/search"
)

// segmentJSON names the ring segments a sub-query is restricted to,
// plus enough of the router's map (shard IDs in map order, vnode
// count, R) to rebuild the ring.
type segmentJSON struct {
	// Shards is every shard ID in the router's map, in map order —
	// the ring is a pure function of this list and Vnodes.
	Shards []string `json:"shards"`
	// Vnodes is the virtual-node count per shard (hashring map
	// "replicas"; 0 selects the default).
	Vnodes int `json:"vnodes"`
	// R is the replication factor users are placed with.
	R int `json:"r"`
	// Members is a replica tuple or the head of one, preference order
	// first. A user belongs to the sub-query iff its own tuple starts
	// with Members (order included): R members name one segment, fewer
	// name every segment they lead.
	Members []string `json:"members"`
}

// errBadSegment marks segment validation failures (client errors).
var errBadSegment = errors.New("bad segment")

// segTableCache memoises the segment table of the rebuilt ring and
// its column, the segment position of every user: every sub-query from
// the same router carries the same shard list and R, so one entry
// suffices and a changed map (rolling restart) simply replaces it.
//
// A user's position depends only on its ID, and the server's IDs are
// append-only — every epoch's are a prefix of the builder's — so one
// column serves every epoch: an epoch reads its first Len() entries,
// and the first segment query of an epoch with more users extends the
// column by the users appended since, one ring lookup each. The entries
// an epoch reads are never written again.
type segTableCache struct {
	mu    sync.Mutex
	key   string
	table *hashring.SegmentTable
	col   []uint16
}

// get returns the table for key and the segment positions of ids, an
// epoch's IDs, under it.
func (c *segTableCache) get(key string, seg *segmentJSON, ids []int) (*hashring.SegmentTable, []uint16, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.key != key || c.table == nil {
		ring, err := hashring.RingFromIDs(seg.Shards, seg.Vnodes)
		if err != nil {
			return nil, nil, err
		}
		table, err := ring.SegmentTable(seg.R)
		if err != nil {
			return nil, nil, err
		}
		// Room for a quarter more users before the first regrow.
		c.key, c.table, c.col = key, table, make([]uint16, 0, len(ids)+len(ids)/4)
	}
	if n := len(c.col); n < len(ids) {
		c.col = c.table.AppendColumn(c.col, ids[n:])
	}
	return c.table, c.col[:len(ids):len(ids)], nil
}

// restrict turns a wire segment into the engine's restriction over v's
// users. Errors wrap errBadSegment. A segment the router and the shard
// could read differently is refused rather than answered: an empty
// answer would merge as a complete one.
func (s *Server) restrict(v *engine.View, seg *segmentJSON) (*search.Restrict, error) {
	if seg.R < 1 || seg.R > len(seg.Shards) {
		return nil, fmt.Errorf("%w: r must be in [1,%d] (the shard count), got %d", errBadSegment, len(seg.Shards), seg.R)
	}
	if len(seg.Members) == 0 || len(seg.Members) > seg.R {
		return nil, fmt.Errorf("%w: want 1 to r=%d members, got %d", errBadSegment, seg.R, len(seg.Members))
	}
	prefix := make([]int, len(seg.Members))
	for i, m := range seg.Members {
		prefix[i] = -1
		for j, id := range seg.Shards {
			if id == m {
				prefix[i] = j
				break
			}
		}
		if prefix[i] < 0 {
			return nil, fmt.Errorf("%w: member %q is not in the shard list", errBadSegment, m)
		}
		for _, earlier := range prefix[:i] {
			if earlier == prefix[i] {
				return nil, fmt.Errorf("%w: member %q named twice", errBadSegment, m)
			}
		}
	}
	key := strconv.Itoa(seg.Vnodes) + "|" + strconv.Itoa(seg.R) + "|" + strings.Join(seg.Shards, "\x00")
	table, col, err := s.segTables.get(key, seg, v.DB().IDs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadSegment, err)
	}
	lo, hi := table.PrefixRange(prefix)
	return &search.Restrict{Partition: key, SegOf: col, Lo: uint16(lo), Hi: uint16(hi)}, nil
}
