package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// This file is the overload-safety layer wrapped around every route by
// Handler(). From the outside in:
//
//  1. Panic recovery — a panicking handler becomes a 500 with the
//     stack in the server log; the process keeps serving.
//  2. Drain gate — after SetDraining(true) (called by geoserve when
//     SIGTERM arrives) every request except /healthz is refused with
//     503 + Retry-After, so load balancers move on while in-flight
//     requests finish under the outer http.Server.Shutdown grace.
//  3. Deadline — every request gets a deadline: the client's
//     ?timeout_ms= if given, else Options.DefaultTimeout; both clamped
//     to Options.MaxTimeout. The two cached top-k routes arm it around
//     their work only — an engine call, or a wait on another request's
//     computation of the same answer — so a cache hit arms no timer;
//     every other route gets it on its request context here. Query
//     handlers run the engine through TopKCtx, so an expired deadline
//     abandons the search (it notices within cancelStride candidates
//     or joins) and maps to 503.
//
// The admission gate is per-route, not a global middleware: only the
// top-k routes (GET /v1/users/{id}/similar, POST /v1/query, GET
// /v1/pairs, POST /v1/classify) do unbounded CPU work, so only they
// shed load. Cheap routes — health, single-user lookups, ingestion —
// keep answering even when the query plane is saturated, which is
// exactly what an operator probing a struggling server needs.

// Options configures the server's overload behaviour. The zero value
// disables the admission gate and applies only the default deadline
// cap, preserving the pre-options behaviour of New.
type Options struct {
	// MaxInflightQueries caps concurrently executing top-k requests
	// (similar/query/pairs/classify). Excess requests get 429 +
	// Retry-After immediately instead of queueing. <= 0 disables the
	// gate.
	MaxInflightQueries int
	// DefaultTimeout is the per-request deadline when the client sends
	// no ?timeout_ms=. <= 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps any deadline, including client-requested ones.
	// <= 0 selects DefaultMaxTimeout.
	MaxTimeout time.Duration
	// Logger receives panic reports; nil selects log.Default().
	Logger *log.Logger
	// CacheSize bounds the epoch-keyed top-k result cache (entries).
	// <= 0 disables caching — the zero value preserves the uncached
	// behaviour of New. Cached answers are byte-identical to computed
	// ones (the cache is keyed by epoch, and epochs are immutable), so
	// enabling it is purely a performance knob.
	CacheSize int
	// ShardID names this instance within a sharded deployment
	// (geoserve -shard-id). When set, /healthz reports it so the
	// router can cross-check the shard map: a shard answering with an
	// unexpected ID — or two map entries answering with the same ID —
	// is a misrouted address, and the router refuses to trust it
	// instead of merging the wrong users' scores. Empty for
	// single-node deployments.
	ShardID string
}

// DefaultMaxTimeout caps client-requested query deadlines when
// Options.MaxTimeout is unset.
const DefaultMaxTimeout = 30 * time.Second

func (o Options) withDefaults() Options {
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = DefaultMaxTimeout
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	return o
}

// Handler returns the HTTP handler: the mux wrapped in the resilience
// chain (deadline, drain gate, panic recovery — applied inside out).
func (s *Server) Handler() http.Handler {
	h := s.withDeadline(s.mux)
	h = s.withDrainGate(h)
	return s.withRecovery(h)
}

// SetDraining flips the drain gate. While draining, every route but
// /healthz answers 503 + Retry-After; /healthz reports "draining" so
// orchestrators can watch the connection count fall. Call it before
// http.Server.Shutdown so new arrivals are shed during the grace
// period instead of joining it.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.opts.Logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				// If the handler already wrote headers this is a lost
				// cause for the response, but the connection and the
				// process both survive.
				writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) withDrainGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && r.URL.Path != "/healthz" {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withDeadline attaches the per-request deadline to r.Context(). A bad
// ?timeout_ms= is a 400; a valid one is clamped to MaxTimeout rather
// than rejected, so clients need not know the server's cap. The cached
// top-k routes (armsOwnDeadline) get no deadline here: they arm it
// around their work (computeAnswer), so a cache hit arms no timer and
// copies no request.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d, err := s.queryTimeout(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if armsOwnDeadline(r) {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// queryTimeout returns r's query deadline: ?timeout_ms= if given, else
// Options.DefaultTimeout, either clamped to MaxTimeout — and an error
// for a malformed timeout_ms. The query string is parsed only when it
// could name timeout_ms (literally, or through a %-escape).
func (s *Server) queryTimeout(r *http.Request) (time.Duration, error) {
	d := s.opts.DefaultTimeout
	if q := r.URL.RawQuery; strings.Contains(q, "timeout_ms") || strings.Contains(q, "%") {
		if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
			ms, err := strconv.Atoi(raw)
			if err != nil || ms <= 0 {
				return s.opts.MaxTimeout, fmt.Errorf("bad timeout_ms %q", raw)
			}
			d = time.Duration(ms) * time.Millisecond
		}
	}
	if d <= 0 || d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d, nil
}

// armsOwnDeadline reports whether r is for one of the routes that arm
// the query deadline themselves (computeAnswer): GET
// /v1/users/{id}/similar and POST /v1/query. A path this admits that
// the mux does not route answers 404 without a deadline, which needs
// none.
func armsOwnDeadline(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet:
		return strings.HasPrefix(r.URL.Path, "/v1/users/") && strings.HasSuffix(r.URL.Path, "/similar")
	case http.MethodPost:
		return r.URL.Path == "/v1/query"
	}
	return false
}

// gated wraps one top-k handler with the admission gate: a slot from
// the bounded channel or an immediate 429 + Retry-After. Shedding at
// admission keeps the worker pools exclusively busy with requests that
// can still meet their deadlines.
func (s *Server) gated(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.gate != nil {
			select {
			case s.gate <- struct{}{}:
				defer func() { <-s.gate }()
			default:
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "query capacity exhausted")
				return
			}
		}
		next(w, r)
	}
}

// writeQueryCtxErr maps a TopKCtx error to its HTTP response and
// reports whether err was non-nil. DeadlineExceeded is the server
// refusing to burn more CPU on the request — 503 with Retry-After, the
// signal geofeed-style clients back off on. Canceled means the client
// went away: nothing useful can be written, so nothing is.
func writeQueryCtxErr(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		// Client disconnected; the response writer is dead.
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
	return true
}
