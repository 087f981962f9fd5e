// Package router is the coordination layer of the distributed serving
// plane: it composes N geoserve shards — each holding a user-disjoint
// slice of the corpus (internal/hashring) — into one service with the
// same observable behaviour as a single node on the union dataset.
//
// The two data paths:
//
//   - Ingest (ingest.go): a sample batch is partitioned by each
//     sample's owning shard and forwarded to the owners, preserving
//     per-shard WAL durability semantics (202 means the owning
//     shard's WAL has the records).
//   - Top-k (topk.go): the query fans out to every healthy shard,
//     each shard answers its local top-k over its own users, and the
//     partials merge through engine.MergeParts — offers into one
//     collector under the (score desc, ID asc) order the single-node
//     loop keeps, so the cross-shard result is
//     byte-identical to a single-node run (proven by the cluster
//     equivalence suite).
//
// Failure is explicit, never silent: the router polls each shard's
// /healthz on an interval; shards that are degraded (sealed WAL,
// corrupt snapshot), draining, unreachable, or misconfigured (the
// reported shard_id contradicts the shard map) are skipped, and every
// affected response carries partial:true plus the missing shard IDs.
// A partial top-k is exactly LinearScan over the remaining shards'
// users — correct for the corpus that answered, with the gap named.
//
// The per-shard client applies a request deadline, bounded retries
// with Retry-After-aware decorrelated-jitter backoff
// (internal/retry — the policy geofeed uses), and a per-shard
// admission gate, so one slow shard can neither stall the fan-out
// past the query deadline nor absorb unbounded concurrent requests.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"geofootprint/internal/breaker"
	"geofootprint/internal/hashring"
	"geofootprint/internal/retry"
)

// Config configures a Router. Zero values select the documented
// defaults.
type Config struct {
	// Map is the validated cluster topology (required).
	Map *hashring.Map
	// RequestTimeout bounds each HTTP attempt to a shard. The
	// caller's context still caps the whole operation. 0 selects 2s.
	RequestTimeout time.Duration
	// MaxAttempts bounds tries per shard request (1 = no retries).
	// 0 selects 3.
	MaxAttempts int
	// RetryBase/RetryCap parameterise the decorrelated-jitter backoff
	// between attempts. 0 selects 25ms / 1s.
	RetryBase, RetryCap time.Duration
	// MaxInflightPerShard caps concurrent in-flight requests per
	// shard; excess fan-out legs wait for a slot or time out with the
	// query deadline. 0 selects 64; < 0 disables the gate.
	MaxInflightPerShard int
	// HealthInterval is the /healthz polling period. 0 selects 2s;
	// < 0 disables the background monitor (tests drive CheckHealth
	// explicitly).
	HealthInterval time.Duration
	// Client is the HTTP client for shard requests; nil selects a
	// default with sane connection pooling. Per-attempt deadlines come
	// from RequestTimeout via context, so Client.Timeout stays 0.
	Client *http.Client
	// Logger receives health transitions and fan-out failures; nil
	// selects log.Default().
	Logger *log.Logger
	// Replicas is the replication factor R: every user is placed on R
	// consecutive ring shards, ingest writes to all of them, and top-k
	// reads fail over across them (replica.go). 0 selects 1 — no
	// replication, the PR-8 behaviour. Values above the shard count
	// clamp to it.
	Replicas int
	// Breaker parameterises the per-shard circuit breakers that skip
	// known-dead shards without burning a timeout. The zero value
	// selects the breaker package defaults.
	Breaker breaker.Config
	// DisableBreaker turns the circuit breakers off: every fan-out leg
	// is attempted even against a shard that just failed.
	DisableBreaker bool
	// MaxHintBytes caps each shard's hinted-handoff queue — NDJSON
	// sub-batches a replica missed while its siblings acked, held for
	// redelivery by the health loop. 0 selects 1 MiB; < 0 disables
	// hinting (a replica that misses a write stays stale until
	// re-ingestion catches it up).
	MaxHintBytes int
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = time.Second
	}
	if c.MaxInflightPerShard == 0 {
		c.MaxInflightPerShard = 64
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 128,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.MaxHintBytes == 0 {
		c.MaxHintBytes = 1 << 20
	}
	return c
}

// Health states a shard can be in, as decided by the monitor.
const (
	// StateUnknown: never successfully probed yet. Shards start here
	// and are treated as serving (optimistically) until a probe fails
	// — a router restart must not flip the whole cluster to partial.
	StateUnknown = "unknown"
	// StateOK: the shard answered /healthz with status "ok".
	StateOK = "ok"
	// StateDegraded: the shard answered but reported itself degraded
	// (sealed WAL, corrupt snapshot). It would answer queries, but
	// its corpus can be behind acknowledged writes — skipped, named.
	StateDegraded = "degraded"
	// StateDraining: the shard is shutting down; its load balancer
	// story is "go away", and the router respects it.
	StateDraining = "draining"
	// StateUnreachable: transport error or non-200 from /healthz.
	StateUnreachable = "unreachable"
	// StateMisconfigured: the shard answered with a shard_id that
	// contradicts the map (wrong process at the address, or two map
	// entries claiming one ID). Routing to it would merge the wrong
	// users' scores — never trusted.
	StateMisconfigured = "misconfigured"
)

// ShardHealth is one shard's last observed state.
type ShardHealth struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	State  string `json:"state"`
	Epoch  uint64 `json:"epoch,omitempty"` // epoch_seq from the shard's last good probe
	Users  int    `json:"users,omitempty"`
	Detail string `json:"detail,omitempty"` // error text for bad states
	// IngestSeq is the shard's last acknowledged WAL LSN (ingest_seq
	// from its last good probe: the last record appended, on stable
	// storage only under -sync batch); Stale marks a replica excluded from reads
	// because it missed acked writes or its seq regressed (replica.go).
	IngestSeq uint64 `json:"ingest_seq,omitempty"`
	Stale     bool   `json:"stale,omitempty"`
	// Breaker is the shard's circuit-breaker state ("closed", "open",
	// "half-open"), empty when breakers are disabled.
	Breaker string `json:"breaker,omitempty"`
}

// serving reports whether query fan-out may use the shard.
func (h ShardHealth) serving() bool {
	return h.State == StateOK || h.State == StateUnknown
}

// shard is the router's per-shard runtime state: identity, admission
// gate, the monitor's last verdict, the circuit breaker, and the
// replica ingest-tracking state (replica.go).
type shard struct {
	id     string
	addr   string
	gate   chan struct{} // nil when the gate is disabled
	health atomic.Value  // ShardHealth

	brk *breaker.Breaker // nil when Config.DisableBreaker

	// Replica state, guarded by rmu: the high-water mark of LSNs this
	// shard acknowledged, the seq-regression flag from health probes,
	// and the hinted-handoff queue of missed ingest sub-batches.
	rmu       sync.Mutex
	ackedSeq  uint64
	regressed bool
	staleWhy  string
	hints     [][]byte
	hintBytes int
}

func (s *shard) Health() ShardHealth { return s.health.Load().(ShardHealth) }

// Router owns the ring, the per-shard clients, and the health
// monitor. Safe for concurrent use.
type Router struct {
	cfg    Config
	ring   *hashring.Ring
	shards []*shard // index-aligned with ring.Shards()
	// segRoots is the top-k fan-out plan (topk.go): the one-shard
	// prefixes of the ring's replica tuples, each the root of its
	// failover tree.
	segRoots []*segNode

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New builds a router over the shard map and, unless
// cfg.HealthInterval < 0, starts the background health monitor after
// one synchronous probe round (so the first query already sees real
// states, not optimism).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Map == nil {
		return nil, errors.New("router: Config.Map is required")
	}
	ring, err := hashring.NewRing(cfg.Map)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:  cfg,
		ring: ring,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if n := len(ring.Shards()); r.cfg.Replicas > n {
		r.cfg.Replicas = n
	}
	var shardIDs []string
	for _, s := range ring.Shards() {
		sh := &shard{id: s.ID, addr: s.Addr}
		if cfg.MaxInflightPerShard > 0 {
			sh.gate = make(chan struct{}, cfg.MaxInflightPerShard)
		}
		if !cfg.DisableBreaker {
			sh.brk = breaker.New(cfg.Breaker)
		}
		sh.health.Store(ShardHealth{ID: s.ID, Addr: s.Addr, State: StateUnknown})
		r.shards = append(r.shards, sh)
		shardIDs = append(shardIDs, s.ID)
	}
	// The shards index segments through a hashring.SegmentTable; a ring
	// too fragmented for one is refused here, not leg by leg.
	table, err := ring.SegmentTable(r.cfg.Replicas)
	if err != nil {
		return nil, err
	}
	if r.segRoots, err = r.buildSegTree(table.Segments(), 0, shardIDs); err != nil {
		return nil, err
	}
	if cfg.HealthInterval > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.RequestTimeout)
		r.CheckHealth(ctx)
		cancel()
		go r.monitor()
	} else {
		close(r.done)
	}
	return r, nil
}

// Close stops the health monitor. It does not wait for in-flight
// fan-outs (their contexts bound them).
func (r *Router) Close() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// Shards returns the current health of every shard, in map order.
// Stale and Breaker are sampled live (they can change between health
// rounds, on every routed ingest or query).
func (r *Router) Shards() []ShardHealth {
	out := make([]ShardHealth, len(r.shards))
	for i, s := range r.shards {
		out[i] = s.Health()
		_, out[i].Stale = s.syncState()
		if s.brk != nil {
			out[i].Breaker = s.brk.State().String()
		}
	}
	return out
}

func (r *Router) monitor() {
	defer close(r.done)
	// Probe intervals are jittered with the same decorrelated-jitter
	// policy the retry path uses (internal/retry): a fleet of routers
	// started together must not thunder-herd every shard's /healthz on
	// one synchronized beat. Each round sleeps a uniform draw from
	// [interval/2, 2*interval] instead of a fixed tick.
	bo := retry.New(r.cfg.HealthInterval/2, 2*r.cfg.HealthInterval, nil)
	t := time.NewTimer(bo.Next(""))
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.RequestTimeout)
			r.CheckHealth(ctx)
			// Hint redelivery piggybacks on the health beat: a replica
			// that missed writes gets them replayed as soon as it is
			// reachable again, and clears its stale flag when the queue
			// drains.
			r.RedeliverHints(ctx)
			cancel()
			t.Reset(bo.Next(""))
		}
	}
}

// healthzJSON is the slice of the shard's /healthz body the router
// reads. Unknown fields are ignored — the shard exposes much more.
type healthzJSON struct {
	Status    string `json:"status"`
	ShardID   string `json:"shard_id"`
	EpochSeq  uint64 `json:"epoch_seq"`
	IngestSeq uint64 `json:"ingest_seq"`
	Users     int    `json:"users"`
}

// CheckHealth probes every shard's /healthz once, concurrently, and
// updates the routing states. Called by the background monitor on its
// interval, and synchronously by New (and tests).
func (r *Router) CheckHealth(ctx context.Context) {
	bodies := make([]healthzJSON, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		wg.Add(1)
		go func(i int, s *shard) {
			defer wg.Done()
			bodies[i], errs[i] = r.probe(ctx, s)
		}(i, s)
	}
	wg.Wait()

	// Cross-check reported IDs across the whole round before deciding
	// states: two addresses answering with the same shard_id is a
	// map misconfiguration that no single probe can see.
	claimed := make(map[string][]int)
	for i := range r.shards {
		if errs[i] == nil && bodies[i].ShardID != "" {
			claimed[bodies[i].ShardID] = append(claimed[bodies[i].ShardID], i)
		}
	}
	for i, s := range r.shards {
		prev := s.Health()
		next := ShardHealth{ID: s.id, Addr: s.addr}
		switch {
		case errs[i] != nil:
			next.State = StateUnreachable
			next.Detail = errs[i].Error()
		case bodies[i].ShardID != "" && bodies[i].ShardID != s.id:
			next.State = StateMisconfigured
			next.Detail = fmt.Sprintf("shard map says %q, instance answered as %q", s.id, bodies[i].ShardID)
		case bodies[i].ShardID != "" && len(claimed[bodies[i].ShardID]) > 1:
			next.State = StateMisconfigured
			next.Detail = fmt.Sprintf("shard id %q claimed by %d map entries", bodies[i].ShardID, len(claimed[bodies[i].ShardID]))
		case bodies[i].Status == "draining":
			next.State = StateDraining
		case bodies[i].Status == "degraded":
			next.State = StateDegraded
		case bodies[i].Status == "ok":
			next.State = StateOK
		default:
			next.State = StateUnreachable
			next.Detail = fmt.Sprintf("unexpected /healthz status %q", bodies[i].Status)
		}
		if errs[i] == nil {
			next.Epoch = bodies[i].EpochSeq
			next.Users = bodies[i].Users
			next.IngestSeq = bodies[i].IngestSeq
			// A shard reporting a lower durable seq than the LSNs it
			// already acknowledged lost writes (restarted onto an older
			// snapshot): stale for reads until it catches back up.
			s.noteProbeSeq(bodies[i].IngestSeq)
		}
		s.health.Store(next)
		if next.State != prev.State {
			r.cfg.Logger.Printf("router: shard %s (%s): %s -> %s %s",
				s.id, s.addr, prev.State, next.State, next.Detail)
		} else if next.State == StateOK && next.Epoch != prev.Epoch {
			r.cfg.Logger.Printf("router: shard %s now serving epoch %d", s.id, next.Epoch)
		}
	}
}

// maxHealthzBody bounds how much of a /healthz response the router
// will read: a misbehaving (or misrouted) endpoint streaming an
// unbounded body must not pin router memory for a probe.
const maxHealthzBody = 1 << 20

func (r *Router) probe(ctx context.Context, s *shard) (healthzJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.addr+"/healthz", nil)
	if err != nil {
		return healthzJSON{}, err
	}
	var h healthzJSON
	err = retry.Exchange(r.cfg.Client, req, func(status int, _ http.Header, body io.Reader) error {
		if status != http.StatusOK {
			return fmt.Errorf("healthz status %d", status)
		}
		if err := json.NewDecoder(io.LimitReader(body, maxHealthzBody)).Decode(&h); err != nil {
			return fmt.Errorf("healthz body: %w", err)
		}
		return nil
	})
	if err != nil {
		return healthzJSON{}, err
	}
	return h, nil
}

// acquire takes an admission-gate slot on s, waiting no longer than
// the context allows. Returns a release func, or an error when the
// gate stayed full past the deadline — the "one slow shard" case: the
// leg is abandoned and reported missing instead of queueing without
// bound.
func (s *shard) acquire(ctx context.Context) (func(), error) {
	if s.gate == nil {
		return func() {}, nil
	}
	select {
	case s.gate <- struct{}{}:
		return func() { <-s.gate }, nil
	default:
	}
	select {
	case s.gate <- struct{}{}:
		return func() { <-s.gate }, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("admission gate full: %w", ctx.Err())
	}
}

// retryable reports whether a shard response status is worth another
// attempt: backpressure (429), unavailability (503, during drain or
// restart), and gateway-ish transients (502, 504).
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// call performs one shard request with the full client policy:
// admission gate, per-attempt deadline, bounded retries with
// Retry-After-aware decorrelated-jitter backoff. do builds a fresh
// request per attempt (bodies are consumed); handle consumes a 2xx
// response body. Any other outcome becomes an error after the
// attempts are exhausted or the context expires.
func (r *Router) call(ctx context.Context, s *shard, build func(ctx context.Context) (*http.Request, error), handle func(status int, body io.Reader) error) error {
	release, err := s.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	bo := retry.New(r.cfg.RetryBase, r.cfg.RetryCap, nil)
	var lastErr error
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, bo.Next(lastRetryAfter(lastErr))); err != nil {
				return fmt.Errorf("%w (last error: %v)", err, lastErr)
			}
		}
		attemptCtx, cancel := context.WithTimeout(ctx, r.cfg.RequestTimeout)
		err := r.attempt(attemptCtx, s, build, handle)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		var se *StatusError
		if errors.As(err, &se) && !retryable(se.Status) {
			return err // 4xx/5xx that retrying cannot fix
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
		}
	}
	return fmt.Errorf("%d attempts failed: %w", r.cfg.MaxAttempts, lastErr)
}

func (r *Router) attempt(ctx context.Context, s *shard, build func(ctx context.Context) (*http.Request, error), handle func(status int, body io.Reader) error) error {
	req, err := build(ctx)
	if err != nil {
		return err
	}
	return retry.Exchange(r.cfg.Client, req, func(status int, h http.Header, body io.Reader) error {
		if status < 200 || status > 299 {
			msg, _ := io.ReadAll(io.LimitReader(body, 512))
			return &StatusError{Status: status, RetryAfter: h.Get("Retry-After"), Body: string(msg)}
		}
		return handle(status, body)
	})
}

// StatusError is a non-2xx shard response.
type StatusError struct {
	Status     int
	RetryAfter string
	Body       string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("shard status %d: %s", e.Status, e.Body)
}

// lastRetryAfter extracts the Retry-After hint from the previous
// attempt's error, so the backoff can honour the shard's own horizon.
func lastRetryAfter(err error) string {
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return ""
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
