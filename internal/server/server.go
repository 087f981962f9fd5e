// Package server exposes a FootprintDB over HTTP/JSON: similarity
// queries, top-k search, dynamic footprint updates, and health. It is
// the integration surface a recommender or market-analysis system
// would call, wrapping the Section 5/6 machinery behind a small REST
// API.
//
// Routes (Go 1.22 pattern syntax):
//
//	GET    /healthz                  liveness + corpus size + epoch/cache stats
//	GET    /v1/users/{id}            footprint summary
//	GET    /v1/users/{id}/similar    top-k similar users (?k=, ?exclude_self=, ?method=)
//	GET    /v1/similarity            pairwise score (?a=, ?b=)
//	POST   /v1/query                 top-k for an ad-hoc footprint ("method" selects the engine)
//	PUT    /v1/users/{id}            upsert a footprint (JSON body)
//	DELETE /v1/users/{id}            tombstone a user
//
// With AttachPipeline (see ingest.go):
//
//	POST   /v1/ingest                NDJSON sample batch → WAL → footprints
//	GET    /v1/ingest/stats          ingestion pipeline + epoch + cache counters
//
// Serving is epoch-based MVCC (store.EpochStore): every query pins the
// current immutable epoch on entry and runs lock-free against its
// frozen database, index and engines. Every data mutation — PUT,
// DELETE, an ingested batch — is a record of the server's one
// ingest.Pipeline, whose apply function writes a private builder under
// a write mutex and publishes the next epoch with one atomic pointer
// swap — so reads never contend with writes. PUT and DELETE answer once
// their record's epoch is published (read your writes). Top-k answers
// are cached per epoch (internal/cache) when a cache is configured;
// the swap invalidates the cache wholesale. The
// cache holds the bytes a top-k route writes, so a hit is a pin, a
// lookup and a write: no re-encoding, and no deadline armed (only a
// miss runs the engine). A /similar entry is keyed by the user's ID,
// method, k and exclude_self, and its miss queries with the user's
// stored row — footprint, norm and sketch as the epoch holds them; a
// /v1/query entry is keyed by the query footprint's encoding. A full
// cache admits a new answer only over a less frequently asked LRU
// victim.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"geofootprint/internal/cache"
	"geofootprint/internal/core"
	"geofootprint/internal/engine"
	"geofootprint/internal/geom"
	"geofootprint/internal/ingest"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// Server wraps a FootprintDB behind HTTP with epoch-based MVCC
// serving: queries pin an immutable published epoch (lock-free),
// mutations are pipeline records whose apply writes the epoch builder
// under mu and publishes a new epoch per apply group.
type Server struct {
	// mu serialises the write path only: builder mutations, Freeze
	// and Publish. No read path ever takes it.
	mu      sync.Mutex
	builder *store.EpochBuilder
	epochs  *store.EpochStore
	cache   *cache.Cache // nil when Options.CacheSize <= 0

	// labels back /v1/classify (SetLabels); nil until installed. They
	// are not epoch state: a request builds its classifier over the
	// epoch it pins.
	labels atomic.Pointer[labelSet]

	// pipe is the one write path. Until AttachPipeline it has no log;
	// logged says AttachPipeline gave it one.
	pipe   *ingest.Pipeline
	logged bool
	mux    *http.ServeMux

	// segTables memoises the ring and segment table rebuilt for
	// segment-restricted queries (segment.go); every sub-query from the
	// same router map hits the one cached entry.
	segTables segTableCache

	// Overload safety (middleware.go): options, the top-k admission
	// gate (nil when unlimited), and the shutdown drain flag.
	opts     Options
	gate     chan struct{}
	draining atomic.Bool

	// snapErr records that startup recovery found the on-disk snapshot
	// corrupt and the operator chose to serve anyway (geoserve
	// -allow-corrupt-snapshot): the server runs on a rebuilt or empty
	// database, /healthz reports degraded until a fresh checkpoint
	// replaces the damaged file. Set once before serving starts.
	snapErr error
}

// SetSnapshotError marks the server as running despite a corrupt
// durable snapshot; /healthz reports status "degraded" with
// snapshot_corrupt until the damaged file has been rewritten. Call
// before the listener starts (the field is read without a lock).
func (s *Server) SetSnapshotError(err error) { s.snapErr = err }

// epochView is the aux value attached to every published epoch: the
// prebuilt index/engine view. Immutable after publish (but for the
// segment column memo, which has its own lock), shared lock-free by
// all queries pinning the epoch.
type epochView struct {
	*engine.View
	seg segColumn // users' ring-segment positions, built on demand (segment.go)
}

// New builds a server over db with default overload options (no
// admission gate, default deadline cap, no result cache). The sketch
// layer is enabled up front — before the first epoch freezes — so
// every epoch's queries are bounded by it and mutations maintain the
// layer from the first request on.
func New(db *store.FootprintDB) *Server {
	return NewWithOptions(db, Options{})
}

// NewWithOptions builds a server over db, publishing the first epoch
// immediately, with explicit overload and caching behaviour.
func NewWithOptions(db *store.FootprintDB, opts Options) *Server {
	s := &Server{
		builder: store.NewEpochBuilder(db),
		epochs:  store.NewEpochStore(),
		mux:     http.NewServeMux(),
		opts:    opts.withDefaults(),
	}
	if n := s.opts.MaxInflightQueries; n > 0 {
		s.gate = make(chan struct{}, n)
	}
	if n := s.opts.CacheSize; n > 0 {
		s.cache = cache.New(n)
	}
	// The sketch layer must exist before the first freeze: published
	// epochs are immutable, so it cannot be enabled retroactively.
	if !db.SketchesEnabled() {
		s.builder.EnableSketches(0, 0)
	}
	serverSink{s: s}.ApplyBatch(nil)
	pipe, err := ingest.New(ingest.Config{Extract: ingest.DefaultExtract()}, serverSink{s: s}, nil)
	if err != nil {
		panic(err) // unreachable: no log to open, and the extraction config is valid
	}
	s.pipe = pipe
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/users/{id}", s.handleGetUser)
	s.mux.HandleFunc("GET /v1/users/{id}/similar", s.gated(s.handleSimilar))
	s.mux.HandleFunc("GET /v1/similarity", s.handlePairwise)
	s.mux.HandleFunc("POST /v1/query", s.gated(s.handleQuery))
	s.mux.HandleFunc("PUT /v1/users/{id}", s.handlePutUser)
	s.mux.HandleFunc("DELETE /v1/users/{id}", s.handleDeleteUser)
	s.registerExtras()
	return s
}

// acquire pins the current epoch for one request. The caller must
// Release the epoch when done (defer at handler entry). This is the
// only synchronisation on the query hot path.
func (s *Server) acquire() (*store.Epoch, *epochView) {
	ep := s.epochs.Acquire()
	return ep, ep.Aux().(*epochView)
}

// EpochStats returns the serving plane's epoch lifecycle counters.
func (s *Server) EpochStats() store.EpochStats { return s.epochs.Stats() }

// CacheStats returns the result-cache counters; ok is false when no
// cache is configured.
func (s *Server) CacheStats() (cache.Stats, bool) {
	if s.cache == nil {
		return cache.Stats{}, false
	}
	return s.cache.Stats(), true
}

// Wire types.

type regionJSON struct {
	Rect   [4]float64 `json:"rect"` // [minx, miny, maxx, maxy]
	Weight float64    `json:"weight"`
}

type userJSON struct {
	ID      int          `json:"id"`
	Regions []regionJSON `json:"regions"`
	Norm    float64      `json:"norm"`
	MBR     [4]float64   `json:"mbr"`
}

type resultJSON struct {
	ID         int     `json:"id"`
	Similarity float64 `json:"similarity"`
}

type queryJSON struct {
	Regions []regionJSON `json:"regions"`
	K       int          `json:"k"`
	// Method selects the candidate source: "", "user-centric" or
	// "sketch" for the default engine (user-centric R-tree), "linear",
	// "iterative" or "batch" for the other Section 6 methods. Scoring
	// and ordering are shared, so all return identical rankings; they
	// differ in cost.
	Method string `json:"method,omitempty"`
	// Segment, when set, restricts the answer to the users whose
	// replica tuple starts with the segment's members (segment.go).
	// Method and the result cache apply as without it.
	Segment *segmentJSON `json:"segment,omitempty"`
}

type errorJSON struct {
	Error string `json:"error"`
}

func toFootprint(regs []regionJSON) (core.Footprint, error) {
	f := make(core.Footprint, 0, len(regs))
	for i, r := range regs {
		if r.Rect[0] > r.Rect[2] || r.Rect[1] > r.Rect[3] {
			return nil, fmt.Errorf("region %d: inverted rectangle", i)
		}
		w := r.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return nil, fmt.Errorf("region %d: negative weight", i)
		}
		f = append(f, core.Region{
			Rect:   geom.Rect{MinX: r.Rect[0], MinY: r.Rect[1], MaxX: r.Rect[2], MaxY: r.Rect[3]},
			Weight: w,
		})
	}
	core.SortByMinX(f)
	return f, nil
}

func fromFootprint(f core.Footprint) []regionJSON {
	out := make([]regionJSON, len(f))
	for i, r := range f {
		out[i] = regionJSON{
			Rect:   [4]float64{r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY},
			Weight: r.Weight,
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// maxJSONBody caps the JSON bodies geoserve reads (POST /v1/query, PUT
// /v1/users/{id}, POST /v1/classify). The largest legitimate one is a
// router leg: georouter's 1 MiB /v1/topk body plus the segment object
// it appends, whose shard list grows with the cluster — hence twice
// the router's cap.
const maxJSONBody = 2 << 20

// writeBodyError answers a body that failed to decode: 413 when it ran
// past maxJSONBody, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "body larger than %d bytes", tooLarge.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "bad body: %v", err)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	ep, v := s.acquire()
	db := v.DB()
	users, regions, seq := db.Len(), db.NumRegions(), ep.Seq()
	ep.Release()
	out := map[string]interface{}{
		"status": "ok", "users": users, "regions": regions,
		"epoch": s.epochs.Stats(),
		// epoch_seq is the epoch this probe actually pinned — flat, so
		// the router can log which epoch answered without digging into
		// the stats object.
		"epoch_seq": seq,
	}
	if s.opts.ShardID != "" {
		// The router cross-checks this against its shard map: a
		// mismatch means the address points at the wrong process.
		out["shard_id"] = s.opts.ShardID
	}
	if st, ok := s.CacheStats(); ok {
		out["cache"] = st
	}
	// Surface WAL health here, not just in /v1/ingest/stats: a sealed
	// log means the server still answers queries but cannot make new
	// writes durable, and that must be visible to the shallowest
	// possible probe.
	if s.logged {
		// ingest_seq is the last WAL LSN this shard acknowledged
		// (appended; durable only under -sync batch). The router
		// compares it against the LSNs it saw acked: a replica
		// reporting a lower seq than its acked high-water mark lost
		// writes (restore from an older snapshot) and is stale for
		// reads until it catches back up.
		out["ingest_seq"] = s.pipe.Stats().Appended
		if werr := s.pipe.WALErr(); werr != nil {
			out["status"] = "degraded"
			out["wal_sealed"] = true
			out["wal_error"] = werr.Error()
		}
	}
	// A corrupt snapshot the operator chose to serve past is the same
	// class of signal as a sealed WAL: the data plane answers, the
	// durability story is damaged, and probes must see it.
	if s.snapErr != nil {
		out["status"] = "degraded"
		out["snapshot_corrupt"] = true
		out["snapshot_error"] = s.snapErr.Error()
	}
	if s.draining.Load() {
		out["status"] = "draining"
		out["draining"] = true
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) userID(r *http.Request) (int, error) {
	return strconv.Atoi(r.PathValue("id"))
}

func (s *Server) handleGetUser(w http.ResponseWriter, r *http.Request) {
	id, err := s.userID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad user id: %v", err)
		return
	}
	ep, v := s.acquire()
	defer ep.Release()
	db := v.DB()
	i, ok := db.IndexOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown user %d", id)
		return
	}
	m := db.MBRs[i]
	writeJSON(w, http.StatusOK, userJSON{
		ID:      id,
		Regions: fromFootprint(db.Row(i)),
		Norm:    db.Norms[i],
		MBR:     [4]float64{m.MinX, m.MinY, m.MaxX, m.MaxY},
	})
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	id, err := s.userID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad user id: %v", err)
		return
	}
	params := parseSimilarQuery(r.URL.RawQuery)
	k := 5
	if params.k != "" {
		if k, err = strconv.Atoi(params.k); err != nil || k < 1 || k > 1000 {
			writeError(w, http.StatusBadRequest, "bad k %q", params.k)
			return
		}
	}
	excludeSelf := params.excludeSelf == "true"

	ep, v := s.acquire()
	defer ep.Release()
	u, ok := v.DB().IndexOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown user %d", id)
		return
	}
	eng, err := v.Engine(params.method)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := cache.Key{
		Epoch: ep.Seq(), Method: engine.CacheName(params.method), K: k,
		ByID: true, User: id, ExcludeSelf: excludeSelf,
	}
	if body, ok := s.cachedAnswer(key); ok {
		writeAnswer(w, body)
		return
	}
	s.computeAnswer(w, r, key, func(ctx context.Context) ([]byte, error) {
		want := k
		if excludeSelf {
			want++
		}
		res, err := eng.TopKRowCtx(ctx, u, want)
		if err != nil {
			return nil, err
		}
		out := make([]resultJSON, 0, k)
		for _, rr := range res {
			if excludeSelf && rr.ID == id {
				continue
			}
			out = append(out, resultJSON{ID: rr.ID, Similarity: rr.Score})
			if len(out) == k {
				break
			}
		}
		return encodeAnswer(out), nil
	})
}

// cachedAnswer returns the encoded answer the result cache holds for
// key, if there is a cache and it does.
func (s *Server) cachedAnswer(key cache.Key) ([]byte, bool) {
	if s.cache == nil {
		return nil, false
	}
	body, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	return body.([]byte), true
}

// computeAnswer answers a request whose answer the cache does not
// hold: compute, under the query deadline armed here — the only place
// a top-k route arms it, so a hit arms none — runs once however many
// requests ask for key at the same time (the others wait for it under
// their own deadlines), and its answer is offered to the cache.
func (s *Server) computeAnswer(w http.ResponseWriter, r *http.Request, key cache.Key, compute func(context.Context) ([]byte, error)) {
	d, _ := s.queryTimeout(r) // withDeadline has answered a bad one with 400
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	var body []byte
	var err error
	if s.cache == nil {
		body, err = compute(ctx)
	} else {
		var val any
		val, _, err = s.cache.GetOrCompute(ctx, key, func() (any, error) { return compute(ctx) })
		body, _ = val.([]byte)
	}
	if writeQueryCtxErr(w, err) {
		return
	}
	writeAnswer(w, body)
}

// encodeAnswer encodes a top-k answer as the top-k routes write it:
// the bytes json.NewEncoder writes for the list.
func encodeAnswer(out []resultJSON) []byte {
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(out) // a list of ints and finite floats cannot fail
	return b.Bytes()
}

// writeAnswer writes an encoded top-k answer with status 200.
func writeAnswer(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handlePairwise(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	a, errA := strconv.Atoi(q.Get("a"))
	b, errB := strconv.Atoi(q.Get("b"))
	if errA != nil || errB != nil {
		writeError(w, http.StatusBadRequest, "need integer ?a= and ?b=")
		return
	}
	ep, v := s.acquire()
	defer ep.Release()
	db := v.DB()
	ia, okA := db.IndexOf(a)
	ib, okB := db.IndexOf(b)
	if !okA || !okB {
		writeError(w, http.StatusNotFound, "unknown user")
		return
	}
	sim := db.UserSimilarity(ia, db.Row(ib), db.Norms[ib])
	writeJSON(w, http.StatusOK, map[string]float64{"similarity": sim})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sc := queryScratches.Get().(*queryScratch)
	defer sc.release()
	var q queryJSON
	if err := sc.decodeQuery(http.MaxBytesReader(w, r.Body, maxJSONBody), &q); err != nil {
		writeBodyError(w, err)
		return
	}
	if q.K < 1 || q.K > 1000 {
		writeError(w, http.StatusBadRequest, "k must be in [1,1000], got %d", q.K)
		return
	}
	f, err := toFootprint(q.Regions)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad footprint: %v", err)
		return
	}
	ep, v := s.acquire()
	defer ep.Release()
	eng, err := v.Engine(q.Method)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var in *search.Restrict
	if q.Segment != nil {
		if in, err = s.restrict(v, q.Segment); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	k := q.K
	var key cache.Key
	if s.cache != nil {
		key = cache.Key{Epoch: ep.Seq(), Method: engine.CacheName(q.Method), K: k, Query: cache.FootprintKey(f)}
		if in != nil {
			key.Partition, key.Lo, key.Hi = in.Partition, in.Lo, in.Hi
		}
		if body, ok := s.cachedAnswer(key); ok {
			writeAnswer(w, body)
			return
		}
	}
	s.computeAnswer(w, r, key, func(ctx context.Context) ([]byte, error) {
		res, err := eng.TopKInCtx(ctx, f, k, in)
		if err != nil {
			return nil, err
		}
		out := make([]resultJSON, len(res))
		for i, rr := range res {
			out[i] = resultJSON{ID: rr.ID, Similarity: rr.Score}
		}
		return encodeAnswer(out), nil
	})
}

func (s *Server) handlePutUser(w http.ResponseWriter, r *http.Request) {
	id, err := s.userID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad user id: %v", err)
		return
	}
	var regs []regionJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(&regs); err != nil {
		writeBodyError(w, err)
		return
	}
	f, err := toFootprint(regs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad footprint: %v", err)
		return
	}
	if _, err := s.pipe.Upsert(r.Context(), id, f); err != nil {
		writePipelineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "regions": len(f)})
}

func (s *Server) handleDeleteUser(w http.ResponseWriter, r *http.Request) {
	id, err := s.userID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad user id: %v", err)
		return
	}
	// A tombstoned user still resolves in the database (dense
	// indexes stay stable); treat an already-empty footprint as
	// absent so deletes are not silently idempotent. The check reads
	// the current epoch, so it sees every write answered before this
	// request arrived.
	ep, v := s.acquire()
	db := v.DB()
	u, ok := db.IndexOf(id)
	gone := !ok || db.RowLen(u) == 0
	ep.Release()
	if gone {
		writeError(w, http.StatusNotFound, "unknown user %d", id)
		return
	}
	if _, err := s.pipe.Remove(r.Context(), id); err != nil {
		writePipelineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "deleted": true})
}

// similarQuery is what GET /v1/users/{id}/similar reads from its query
// string: the first value of each parameter, as url.Values.Get gives
// it.
type similarQuery struct{ k, excludeSelf, method string }

// parseSimilarQuery reads raw in one pass under url.ParseQuery's rules —
// pairs split at '&', a pair holding ';' or failing to unescape
// skipped, keys and values query-unescaped — keeping only the
// parameters the route reads. Plain pairs cost no allocation
// (url.QueryUnescape returns an unescaped string as it is).
func parseSimilarQuery(raw string) similarQuery {
	var q similarQuery
	var seenK, seenSelf, seenMethod bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, err := url.QueryUnescape(key)
		if err != nil {
			continue
		}
		if val, err = url.QueryUnescape(val); err != nil {
			continue
		}
		switch {
		case key == "k" && !seenK:
			q.k, seenK = val, true
		case key == "exclude_self" && !seenSelf:
			q.excludeSelf, seenSelf = val, true
		case key == "method" && !seenMethod:
			q.method, seenMethod = val, true
		}
	}
	return q
}
