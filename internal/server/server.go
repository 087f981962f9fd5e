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
// frozen database, index and engines; mutations serialise behind a
// write mutex, apply to a private builder, and publish the next epoch
// with one atomic pointer swap — so reads never contend with writes,
// and a swap is immediately visible to the next query (read your
// writes). Top-k answers are cached per epoch (internal/cache) when a
// cache is configured; the swap invalidates the cache wholesale.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"geofootprint/internal/cache"
	"geofootprint/internal/classify"
	"geofootprint/internal/core"
	"geofootprint/internal/engine"
	"geofootprint/internal/geom"
	"geofootprint/internal/ingest"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// Server wraps a FootprintDB behind HTTP with epoch-based MVCC
// serving: queries pin an immutable published epoch (lock-free),
// mutations go through the epoch builder under mu and publish a new
// epoch per request or ingest batch.
type Server struct {
	// mu serialises the write path only: builder mutations, Freeze,
	// Publish, and label installation. No read path ever takes it.
	mu      sync.Mutex
	builder *store.EpochBuilder
	epochs  *store.EpochStore
	cache   *cache.Cache // nil when Options.CacheSize <= 0

	// labels back /v1/classify (SetLabels); a classifier over each
	// epoch's view is rebuilt at publish time.
	labels  map[int]string
	labelsK int

	pipe *ingest.Pipeline // nil until AttachPipeline
	mux  *http.ServeMux

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
// prebuilt index/engine view plus the optional classifier. Immutable
// after publish (but for the segment column memo, which has its own
// lock), shared lock-free by all queries pinning the epoch.
type epochView struct {
	*engine.View
	cls *classify.Classifier // nil until SetLabels
	seg segColumn            // users' ring-segment positions, built on demand (segment.go)
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
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
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

// publishLocked freezes the builder, assembles the epoch's serving
// view (index, engines, classifier), publishes it with one pointer
// swap, and invalidates the result cache. Caller holds s.mu. Building
// the view happens here — on the write path — precisely so the query
// path never constructs or locks anything.
func (s *Server) publishLocked() {
	db := s.builder.Freeze()
	v := engine.NewView(db, 0)
	aux := &epochView{View: v}
	if s.labels != nil {
		// Validated when installed; a classifier over a fresh view of
		// the same labels can only fail if every labelled user vanished,
		// in which case classification correctly degrades to 503.
		if cls, err := newClassifier(v, s.labels, s.labelsK); err == nil {
			aux.cls = cls
		}
	}
	ep := s.epochs.Publish(db, aux)
	if s.cache != nil {
		s.cache.Purge(ep.Seq())
	}
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
	// Method, workers and the result cache apply as without it.
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
	users, regions, seq := v.DB().Len(), v.DB().NumRegions(), ep.Seq()
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
	if s.pipe != nil {
		// ingest_seq is the last WAL LSN this shard made durable. The
		// router compares it against the LSNs it saw acked: a replica
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
		Regions: fromFootprint(db.Footprints[i]),
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
	k := 5
	if kq := r.URL.Query().Get("k"); kq != "" {
		if k, err = strconv.Atoi(kq); err != nil || k < 1 || k > 1000 {
			writeError(w, http.StatusBadRequest, "bad k %q", kq)
			return
		}
	}
	excludeSelf := r.URL.Query().Get("exclude_self") == "true"
	method := r.URL.Query().Get("method")

	ep, v := s.acquire()
	defer ep.Release()
	i, ok := v.DB().IndexOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown user %d", id)
		return
	}
	want := k
	if excludeSelf {
		want++
	}
	res, _, err := v.TopKCached(r.Context(), s.cache, ep.Seq(), method, v.DB().Footprints[i], want)
	if err != nil {
		if _, methodErr := v.Engine(method); methodErr != nil {
			writeError(w, http.StatusBadRequest, "%v", methodErr)
			return
		}
		if writeQueryCtxErr(w, err) {
			return
		}
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
	writeJSON(w, http.StatusOK, out)
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
	sim := db.UserSimilarity(ia, db.Footprints[ib], db.Norms[ib])
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
	if _, methodErr := v.Engine(q.Method); methodErr != nil {
		writeError(w, http.StatusBadRequest, "%v", methodErr)
		return
	}
	var in *search.Restrict
	if q.Segment != nil {
		if in, err = s.restrict(v, q.Segment); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	res, _, err := v.TopKCachedIn(r.Context(), s.cache, ep.Seq(), q.Method, f, q.K, in)
	if err != nil && writeQueryCtxErr(w, err) {
		return
	}
	out := make([]resultJSON, len(res))
	for i, rr := range res {
		out[i] = resultJSON{ID: rr.ID, Similarity: rr.Score}
	}
	writeJSON(w, http.StatusOK, out)
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
	s.mu.Lock()
	s.builder.Upsert(id, f)
	s.publishLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "regions": len(f)})
}

func (s *Server) handleDeleteUser(w http.ResponseWriter, r *http.Request) {
	id, err := s.userID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad user id: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A tombstoned user still resolves in the database (dense
	// indexes stay stable); treat an already-empty footprint as
	// absent so deletes are not silently idempotent.
	db := s.builder.DB()
	u, ok := db.IndexOf(id)
	if !ok || len(db.Footprints[u]) == 0 {
		writeError(w, http.StatusNotFound, "unknown user %d", id)
		return
	}
	s.builder.Remove(id)
	s.publishLocked()
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": id, "deleted": true})
}
