package server

import (
	"context"
	"errors"
	"io"
	"net/http"

	"geofootprint/internal/cache"
	"geofootprint/internal/core"
	"geofootprint/internal/engine"
	"geofootprint/internal/ingest"
	"geofootprint/internal/store"
	"geofootprint/internal/wal"
)

// Streaming ingestion endpoints, active once AttachPipeline wires a
// durable pipeline to the server:
//
//	POST /v1/ingest        NDJSON sample batch; 202 + LSN on success,
//	                       429 + Retry-After under backpressure
//	GET  /v1/ingest/stats  pipeline + epoch + cache counters
//
// The pipeline is the server's one write path: ingested batches, PUTs
// and DELETEs are its records, and its apply function lands them
// through a sink that takes the server's write mutex, applies them to
// the epoch builder in record order, and publishes the next epoch —
// one atomic swap per apply group: a single record while the pipeline
// keeps up, everything that queued behind it when it does not
// (ingest.Pipeline's group commit). Queries on all methods keep
// serving lock-free against the previous epoch while the group lands,
// and stay exact. Before AttachPipeline the server's pipeline has no
// log: PUT and DELETE apply inline, and nothing is durable.

// maxIngestSamples bounds one POST /v1/ingest body; clients split
// larger loads into multiple requests (and get per-batch LSNs).
const maxIngestSamples = 10000

// serverSink is the ingest.Sink that applies pipeline output to the
// serving state: every update into the epoch builder behind the write
// mutex, then one epoch publish per call. It is the one place an epoch
// is published; New publishes the first with an empty batch.
type serverSink struct {
	s         *Server
	weighting core.Weighting
}

// ApplyBatch writes updates into the builder, freezes it, builds the
// epoch's serving view (engines over the index the epoch shares with
// its base), publishes it with one pointer swap, and invalidates the
// result cache. Building the view here — on the write path — is what
// keeps the query path from constructing or locking anything; the
// freeze and the view cost O(users) word copies and no index build
// unless the epoch starts a new base.
func (k serverSink) ApplyBatch(updates []ingest.UserRoIs) {
	s := k.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, u := range updates {
		u.ApplyTo(s.builder, k.weighting)
	}
	db := s.builder.Freeze()
	ep := s.epochs.Publish(db, &epochView{View: engine.NewView(db, 0)})
	if s.cache != nil {
		s.cache.Purge(ep.Seq())
	}
}

func (k serverSink) WithDB(fn func(db *store.FootprintDB)) {
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	// The builder's working database always equals the latest
	// published epoch (every mutation publishes under mu), so the
	// checkpoint snapshot encodes exactly the served state.
	fn(k.s.builder.DB())
}

// AttachPipeline gives the server's write path a durable log: it
// starts an ingestion pipeline over the server's database in place of
// the unlogged one, and registers the ingest routes. Call it once,
// before serving, after ingest.Recover has rebuilt the database the
// server was constructed over, passing the recovered state. The
// returned pipeline is owned by the caller, who must Close it on
// shutdown (before the HTTP listener stops accepting, so in-flight
// acks are not lost).
func (s *Server) AttachPipeline(cfg ingest.Config, state *ingest.State) (*ingest.Pipeline, error) {
	if s.logged {
		return nil, errors.New("server: pipeline already attached")
	}
	p, err := ingest.New(cfg, serverSink{s: s, weighting: cfg.Weighting}, state)
	if err != nil {
		return nil, err
	}
	s.pipe, s.logged = p, true
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/ingest/stats", s.handleIngestStats)
	return p, nil
}

// sizedBody is a request body that reports its Content-Length the way
// the in-memory readers report what is left of them, so ParseNDJSON
// sizes its result once instead of growing it line by line. An unknown
// length (-1, chunked) gives no hint.
type sizedBody struct {
	io.Reader
	n int64
}

func (b sizedBody) Len() int { return int(b.n) }

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	samples, err := ingest.ParseNDJSON(sizedBody{r.Body, r.ContentLength}, maxIngestSamples)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad batch: %v", err)
		return
	}
	if len(samples) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// IngestCtx only observes the context before the WAL append, so a
	// fired deadline can never lose an acknowledged batch.
	lsn, err := s.pipe.IngestCtx(r.Context(), samples)
	if err != nil {
		writePipelineError(w, err)
		return
	}
	// 202, not 200: the batch is durable but not yet queryable.
	writeJSON(w, http.StatusAccepted, map[string]interface{}{
		"lsn": lsn, "samples": len(samples),
	})
}

// writePipelineError answers a pipeline write (ingest, PUT, DELETE) that
// failed: 429 + Retry-After on a full queue, 503 on a sealed WAL, a
// closed pipeline or a deadline that fired before the append, 500
// otherwise.
func writePipelineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ingest.ErrBacklogFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, wal.ErrSealed):
		// The WAL sealed after an I/O error: ingestion is read-only
		// until an operator intervenes, but queries still serve. 503
		// without Retry-After — retrying will not help.
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ingest.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "request deadline expired before the write was accepted")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// ingestStatsJSON extends the pipeline counters with serving-plane
// observability: epoch swap cadence and result-cache efficacy. The
// pipeline fields stay at the top level (embedding), so existing
// consumers keep their schema.
type ingestStatsJSON struct {
	ingest.Stats
	Epoch store.EpochStats `json:"epoch"`
	Cache *cache.Stats     `json:"cache,omitempty"`
}

func (s *Server) handleIngestStats(w http.ResponseWriter, r *http.Request) {
	out := ingestStatsJSON{Stats: s.pipe.Stats(), Epoch: s.epochs.Stats()}
	if st, ok := s.CacheStats(); ok {
		out.Cache = &st
	}
	writeJSON(w, http.StatusOK, out)
}
