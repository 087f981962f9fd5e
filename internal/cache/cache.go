// Package cache is the epoch-keyed result cache of the serving plane:
// a bounded LRU over top-k answers whose keys carry the epoch sequence
// number they were computed against. Consistency is structural, not
// temporal — an epoch is immutable, so an answer computed against it
// can never go stale *within* that epoch; publishing a new epoch
// changes every key, and Purge then drops the superseded entries
// wholesale. No per-entry TTLs, no invalidation protocol.
//
// Admission is by frequency, in the manner of TinyLFU (Einziger et
// al., ACM ToS 2017): every access is counted in a count-min sketch
// keyed by the query without its epoch, so a query's popularity
// survives the purge at every publish, and a full cache takes a newly
// computed answer only in place of a less frequent LRU victim. A
// one-off query therefore cannot push a popular one out, which plain
// LRU lets a scan of them do.
//
// Concurrent identical misses are deduplicated single-flight: the
// first caller computes, the rest wait on its result (or their own
// context), so a hot query under load costs one engine execution per
// epoch instead of one per request.
package cache

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"geofootprint/internal/core"
)

// Key identifies one cacheable answer: the epoch it was computed
// against, the search method, k, and the exact query footprint in
// canonical encoded form. Using the full encoding instead of a digest
// makes collisions impossible — two distinct queries can never alias
// to one entry, so a hit is always byte-identical to a recompute.
type Key struct {
	Epoch  uint64
	Method string
	K      int
	Query  string
	// Partition, Lo and Hi say which part of the corpus the answer
	// covers: segments [Lo, Hi) of the named partition of the epoch's
	// users (search.Restrict). All zero: the whole corpus.
	Partition string
	Lo, Hi    uint16
	// ByID keys a stored user's answer by the user's ID instead of its
	// footprint (GET /v1/users/{id}/similar): User is the ID, Query is
	// empty, and ExcludeSelf says whether the answer leaves the user
	// out. Within an epoch an ID names one footprint, so the key is as
	// exact as the footprint's encoding.
	ByID        bool
	User        int
	ExcludeSelf bool
}

// identity hashes every field of k but the epoch — the name of a query
// across epochs, under which the admission filter counts its accesses:
// FNV-1a over the strings, each preceded by its length, then the
// numbers through a SplitMix64 finalizer (every input bit flips about
// half the output bits). The hash is fixed, with no per-process seed,
// so admission decisions are reproducible.
func (k *Key) identity() uint64 {
	h := uint64(14695981039346656037)
	for _, s := range [...]string{k.Method, k.Query, k.Partition} {
		h = mix64(h ^ uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
	}
	flags := uint64(k.Lo)<<32 | uint64(k.Hi)<<16
	if k.ByID {
		flags |= 1
	}
	if k.ExcludeSelf {
		flags |= 2
	}
	for _, v := range [...]uint64{uint64(k.K), uint64(k.User), flags} {
		h = mix64(h ^ v)
	}
	return h
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// FootprintKey encodes a footprint into the canonical Key.Query form:
// the IEEE-754 bits of every rectangle coordinate and weight, in
// region order. Footprints are MinX-sorted everywhere in the repo, so
// equal footprints encode equally.
func FootprintKey(f core.Footprint) string {
	b := make([]byte, 0, 40*len(f))
	var tmp [8]byte
	for _, r := range f {
		for _, v := range [5]float64{r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY, r.Weight} {
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
			b = append(b, tmp[:]...)
		}
	}
	return string(b)
}

// Stats is a point-in-time snapshot of the cache counters, shaped for
// /v1/ingest/stats, /healthz and operator logs.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Purged counts entries dropped by epoch invalidation (swaps).
	Purged uint64 `json:"purged"`
	// Rejected counts answers computed but not admitted: the cache was
	// full and the LRU victim was at least as frequent.
	Rejected uint64 `json:"rejected"`
	Entries  int    `json:"entries"`
	Cap      int    `json:"cap"`
}

type entry struct {
	key Key
	id  uint64 // key.identity()
	val any
}

// flight is one in-progress computation other callers can wait on.
// val/err are written before done is closed and read only after.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is a bounded LRU with frequency admission, single-flight miss
// deduplication and wholesale epoch invalidation. All methods are safe
// for concurrent use. Cached values are shared across callers and must
// be treated as immutable — which is exactly the contract of
// epoch-pinned results.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List            // front = most recently used
	items   map[Key]*list.Element // value: *entry
	flights map[Key]*flight
	freq    frequency
	// floor is the lowest epoch still admitted; Purge raises it so a
	// computation that was in flight across a swap cannot re-populate
	// the cache with entries for a dead epoch.
	floor uint64

	hits, misses, evictions, purged, rejected atomic.Uint64
}

// New returns a cache bounded to capacity entries (minimum 1). The
// admission filter is sized from the capacity.
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[Key]*list.Element),
		flights: make(map[Key]*flight),
		freq:    newFrequency(capacity),
	}
}

// Get returns the cached value for key and counts the access as a hit.
// A miss counts nothing, neither the miss nor the access: the caller
// follows it with GetOrCompute on the same key, which counts both. It
// lets a serving path look up before it pays for what only a miss
// needs (a deadline, a compute closure).
func (c *Cache) Get(key Key) (any, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	e := el.Value.(*entry)
	c.freq.add(e.id)
	c.ll.MoveToFront(el)
	v := e.val
	c.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// GetOrCompute returns the cached value for key, or computes it with
// fn and caches it. The second return reports a cache hit (including
// joining another caller's in-flight computation). Concurrent calls
// with the same key run fn once; waiters whose ctx expires return
// ctx's error without cancelling the computation. fn's error is
// returned to the computing caller and never cached. If fn panics the
// panic propagates to its caller, the flight is released with an error
// and nothing is cached, so waiters and later callers compute afresh
// instead of blocking on a flight that would never complete.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, fn func() (any, error)) (any, bool, error) {
	id := key.identity()
	c.mu.Lock()
	c.freq.add(id)
	for {
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			v := el.Value.(*entry).val
			c.mu.Unlock()
			c.hits.Add(1)
			return v, true, nil
		}
		if fl, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if fl.err != nil {
				// The computing caller failed (typically its own
				// context); retry — the next loop either finds a
				// value, joins a newer flight, or computes.
				c.mu.Lock()
				continue
			}
			c.hits.Add(1)
			return fl.val, true, nil
		}
		fl := &flight{done: make(chan struct{}), err: errComputePanicked}
		c.flights[key] = fl
		c.mu.Unlock()
		c.misses.Add(1)
		return c.compute(key, id, fl, fn)
	}
}

// errComputePanicked is the error a flight carries until its compute
// function returns; waiters see it only when the function panicked,
// and treat it like any other failed flight (retry).
var errComputePanicked = errors.New("cache: compute function panicked")

// compute runs fn for the flight this caller owns. The flight is
// released in a defer, so a panicking fn cannot leave it registered.
func (c *Cache) compute(key Key, id uint64, fl *flight, fn func() (any, error)) (any, bool, error) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if fl.err == nil && key.Epoch >= c.floor {
			c.admitLocked(key, id, fl.val)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = fn()
	return fl.val, false, fl.err
}

// admitLocked stores key → val: outright while there is room, and in a
// full cache in place of the LRU victim, but only when key's access
// count is strictly greater than the victim's; otherwise the value is
// not stored (its callers have it already) and counts as rejected.
// Caller holds c.mu.
func (c *Cache) admitLocked(key Key, id uint64, val any) {
	if c.ll.Len() >= c.cap {
		tail := c.ll.Back()
		victim := tail.Value.(*entry)
		if c.freq.estimate(id) <= c.freq.estimate(victim.id) {
			c.rejected.Add(1)
			return
		}
		c.ll.Remove(tail)
		delete(c.items, victim.key)
		c.evictions.Add(1)
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, id: id, val: val})
}

// Purge drops every entry computed against an epoch older than
// minEpoch and raises the admission floor so late in-flight inserts
// for those epochs are discarded. The server calls it with the new
// sequence number at every publish: one swap, wholesale invalidation.
func (c *Cache) Purge(minEpoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if minEpoch > c.floor {
		c.floor = minEpoch
	}
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry); e.key.Epoch < c.floor {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.purged.Add(1)
		}
		el = next
	}
}

// Len returns the current number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := c.ll.Len()
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Purged:    c.purged.Load(),
		Rejected:  c.rejected.Load(),
		Entries:   n,
		Cap:       c.cap,
	}
}
