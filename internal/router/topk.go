package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"geofootprint/internal/engine"
	"geofootprint/internal/search"
)

// Query is the router's top-k request. Regions is kept as raw JSON
// and forwarded to every shard byte-for-byte: the router never
// re-encodes the query geometry, so the footprint every shard scores
// is bit-identical to the one a single node would have parsed from
// the same client body.
type Query struct {
	Regions json.RawMessage `json:"regions"`
	K       int             `json:"k"`
	Method  string          `json:"method,omitempty"`
}

// TopKResult is a merged cross-shard answer. When Partial is false,
// Results is byte-identical to the same query against a single node
// holding the union of all shards' users (the cluster equivalence
// suite proves this for all four methods). When Partial is true,
// Missing names every ring segment that was lost — every replica
// skipped (unhealthy, stale, breaker open) or failed (errors,
// deadline) — and Results is exact over the segments that answered:
// correct for the corpus that answered, with the gap named, never
// silently wrong. With Replicas == 1 a segment ID is the bare shard
// ID; with R > 1 it is the replica tuple joined with "+".
type TopKResult struct {
	Results []search.Result
	Partial bool
	Missing []string
	// Queried is how many ring segments contributed results (a leg can
	// carry several).
	Queried int
	// Epochs records, per contributing shard, the epoch that was
	// serving at its last health probe — observability for "which
	// epoch answered", logged by the coordinator.
	Epochs map[string]uint64
	// FailedOver counts, per contributing segment, the replicas passed
	// over before one answered — the replication payoff, surfaced for
	// the failover bench.
	FailedOver int
}

// shardResultJSON mirrors the shard's /v1/query response entry.
type shardResultJSON struct {
	ID         int     `json:"id"`
	Similarity float64 `json:"similarity"`
}

// ErrBadQuery marks client-side validation failures (the coordinator
// maps it to 400); ErrUnavailable marks "no shard could answer" (503).
var (
	ErrBadQuery    = errors.New("bad query")
	ErrUnavailable = errors.New("no shard available")
)

// wireSegment is the segment object forwarded to the shard's
// /v1/query (mirrors the server's segmentJSON): the shard-ID list,
// vnode count and R the shard needs to rebuild the identical ring, and
// the members — a replica tuple or the head of one — whose users the
// leg is restricted to.
type wireSegment struct {
	Shards  []string `json:"shards"`
	Vnodes  int      `json:"vnodes,omitempty"`
	R       int      `json:"r"`
	Members []string `json:"members"`
}

// wireQuery is the shard-bound query body without its segment; a leg
// appends its node's pre-marshalled one (segNode.body).
type wireQuery struct {
	Regions json.RawMessage `json:"regions"`
	K       int             `json:"k"`
	Method  string          `json:"method,omitempty"`
}

// segNode is one possible fan-out leg: the ring segments whose replica
// tuple starts with a given prefix, asked of the prefix's last shard —
// which holds them all, being a member of every such tuple. The ring's
// segment list is sorted, so the prefixes form a tree: the roots are
// the one-shard prefixes (the healthy fan-out, one leg per shard), and
// a node's children split its segments by the next replica, each asked
// of that replica — where a leg goes when the node's own shard cannot
// answer. A leaf is a whole tuple, asked of its last replica. The tree
// depends only on the ring and R, so Router.New builds it once.
type segNode struct {
	id       string // hashring.SegmentID of the prefix
	shard    int    // index of the prefix's last member in Router.shards
	depth    int    // len(prefix); a leg here has passed over depth-1 replicas
	leaves   int    // ring segments under the prefix
	children []*segNode
	// wire closes a query body with this node's segment object:
	// `,"segment":{...}}`. A lone `}` when R == 1: the shard then serves
	// its whole corpus, which is exactly its one segment.
	wire []byte
}

// buildSegTree groups segs — sorted replica tuples sharing their first
// depth members — by the next member.
func (r *Router) buildSegTree(segs [][]int, depth int, shardIDs []string) ([]*segNode, error) {
	var nodes []*segNode
	for lo := 0; lo < len(segs); {
		hi := lo + 1
		for hi < len(segs) && segs[hi][depth] == segs[lo][depth] {
			hi++
		}
		prefix := segs[lo][:depth+1]
		n := &segNode{id: r.ring.SegmentID(prefix), shard: prefix[depth], depth: depth + 1, leaves: hi - lo, wire: []byte("}")}
		if r.cfg.Replicas > 1 {
			members := make([]string, len(prefix))
			for i, j := range prefix {
				members[i] = shardIDs[j]
			}
			seg, err := json.Marshal(wireSegment{Shards: shardIDs, Vnodes: r.cfg.Map.Replicas, R: r.cfg.Replicas, Members: members})
			if err != nil {
				return nil, err
			}
			n.wire = append(append([]byte(`,"segment":`), seg...), '}')
		}
		if depth+1 < len(segs[lo]) {
			var err error
			if n.children, err = r.buildSegTree(segs[lo:hi], depth+1, shardIDs); err != nil {
				return nil, err
			}
		}
		nodes = append(nodes, n)
		lo = hi
	}
	return nodes, nil
}

// body is the leg's request body: the marshalled query with its
// closing brace replaced by the node's segment.
func (n *segNode) body(query []byte) []byte {
	b := make([]byte, 0, len(query)-1+len(n.wire))
	return append(append(b, query[:len(query)-1]...), n.wire...)
}

// fanout is the state one TopK call's legs share.
type fanout struct {
	r     *Router
	query []byte // marshalled wireQuery
	wg    sync.WaitGroup

	mu        sync.Mutex // guards res, gather and firstFail
	res       *TopKResult
	gather    *segGather
	firstFail error
}

// TopK scatter-gathers q across the ring's segments and merges the
// partial top-k lists with engine.MergeParts. Each user belongs to
// exactly one segment (one distinct replica tuple), and every segment
// is answered by at most one leg. Healthy, that is one leg per shard,
// covering the segments the shard leads; a shard that is unhealthy,
// stale, behind an open breaker, or fails the leg hands each of its
// segments to the next replica of that segment's tuple, and so on down
// the tuple (segNode). With R == 1 the segment field is omitted
// entirely — the shard serves its whole corpus. The context bounds the
// whole fan-out: legs that miss the deadline (including waiting at a
// full admission gate) fail over, and a segment with no live replica is
// reported missing rather than stalling the merge.
func (r *Router) TopK(ctx context.Context, q Query) (*TopKResult, error) {
	if q.K < 1 || q.K > 1000 {
		return nil, fmt.Errorf("%w: k must be in [1,1000], got %d", ErrBadQuery, q.K)
	}
	if len(q.Regions) == 0 {
		return nil, fmt.Errorf("%w: query has no regions", ErrBadQuery)
	}
	query, err := json.Marshal(wireQuery{Regions: q.Regions, K: q.K, Method: q.Method}) // regions pass through as raw bytes
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	f := &fanout{r: r, query: query, res: &TopKResult{Epochs: make(map[string]uint64)}, gather: newSegGather()}
	f.wg.Add(len(r.segRoots))
	for _, n := range r.segRoots {
		go f.leg(ctx, n, nil)
	}
	f.wg.Wait()

	res := f.res
	sort.Strings(res.Missing)
	if res.Queried == 0 {
		return nil, fmt.Errorf("%w: no segment answered (%d missing: %v; first: %v)",
			ErrUnavailable, len(res.Missing), res.Missing, f.firstFail)
	}
	res.Results = engine.MergeParts(f.gather.collect(), q.K)
	return res, nil
}

// leg asks n's shard for n's segments. If the shard cannot be asked or
// does not answer, n's children take over, one goroutine each; at a
// leaf the segment is lost. passed holds why each earlier replica of
// the path was passed over.
func (f *fanout) leg(ctx context.Context, n *segNode, passed []error) {
	defer f.wg.Done()
	r, s := f.r, f.r.shards[n.shard]
	part, epoch, err := f.ask(ctx, s, n)
	if err == nil {
		f.mu.Lock()
		if f.gather.add(n.id, part) {
			f.res.Queried += n.leaves
			f.res.Epochs[s.id] = epoch
			f.res.FailedOver += (n.depth - 1) * n.leaves // legs burned before this one answered
		} else {
			r.cfg.Logger.Printf("router: duplicate answer for segment %s dropped", n.id)
		}
		f.mu.Unlock()
		return
	}
	passed = append(passed[:len(passed):len(passed)], err)
	if len(n.children) > 0 {
		f.wg.Add(len(n.children))
		for _, c := range n.children {
			go f.leg(ctx, c, passed)
		}
		return
	}
	f.mu.Lock()
	f.res.Partial = true
	f.res.Missing = append(f.res.Missing, n.id)
	if f.firstFail == nil {
		f.firstFail = passed[0]
	}
	f.mu.Unlock()
	r.cfg.Logger.Printf("router: segment %s lost: no in-sync replica answered (%v)", n.id, errors.Join(passed...))
}

// ask sends n's leg to s, unless s is known not to serve or to be
// stale, and returns the shard's partial answer with the epoch s was
// serving at its last health probe.
func (f *fanout) ask(ctx context.Context, s *shard, n *segNode) ([]search.Result, uint64, error) {
	h := s.Health()
	if !h.serving() {
		return nil, 0, fmt.Errorf("replica %s %s%s", s.id, h.State, detailSuffix(h.Detail))
	}
	if why, stale := s.syncState(); stale {
		return nil, 0, fmt.Errorf("replica %s stale: %s", s.id, why)
	}
	body := n.body(f.query)
	var list []shardResultJSON
	err := f.r.callBrk(ctx, s,
		func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.addr+"/v1/query", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			return req, nil
		},
		func(_ int, rb io.Reader) error {
			return decodeJSONBody(rb, &list)
		})
	if err != nil {
		if !errors.Is(err, ErrBreakerOpen) {
			f.r.cfg.Logger.Printf("router: segment %s leg to replica %s failed: %v", n.id, s.id, err)
		}
		return nil, 0, fmt.Errorf("replica %s: %w", s.id, err)
	}
	part := make([]search.Result, len(list))
	for i, e := range list {
		part[i] = search.Result{ID: e.ID, Score: e.Similarity}
	}
	return part, h.Epoch, nil
}

func detailSuffix(detail string) string {
	if detail == "" {
		return ""
	}
	return ": " + detail
}

// decodeJSONBody decodes exactly one JSON value and drains the rest
// of the body so the HTTP connection can be reused.
func decodeJSONBody(r io.Reader, v interface{}) error {
	if err := json.NewDecoder(r).Decode(v); err != nil {
		return err
	}
	_, err := io.Copy(io.Discard, r)
	return err
}
