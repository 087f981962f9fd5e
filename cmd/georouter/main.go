// Command georouter is the coordinator of the distributed serving
// plane: it fronts N geoserve shards (each holding a user-disjoint
// slice of the corpus, assigned by internal/hashring) and exposes the
// same ingest/query surface as a single node.
//
//	georouter -map cluster.json -addr :9090
//
// The shard map is a static JSON file:
//
//	{"version":1,"replicas":128,"shards":[
//	  {"id":"shard-0","addr":"http://10.0.0.1:8080"},
//	  {"id":"shard-1","addr":"http://10.0.0.2:8080"}]}
//
// Endpoints:
//
//	GET  /healthz    aggregate cluster health + per-shard states
//	POST /v1/topk    {"regions":[...],"k":10,"method":"..."} — scatter-
//	                 gather; response carries results, partial, missing
//	POST /v1/ingest  NDJSON samples, routed to owners by user ID; 202
//	                 means every owning shard's WAL has its slice
//
// The router polls each shard's /healthz on -health-interval (with
// decorrelated jitter, so a fleet of routers never probes in phase)
// and degrades explicitly: sealed, draining, unreachable, stale or
// misconfigured shards are skipped and every affected query answers
// partial:true with the missing ring-segment IDs — never silently
// wrong. Shard requests get a per-attempt deadline (-shard-timeout),
// bounded retries with Retry-After-aware backoff (-retries,
// -retry-base, -retry-cap), a per-shard admission gate
// (-max-inflight-per-shard), and a per-shard circuit breaker
// (-breaker-window, -breaker-threshold, -breaker-min-samples,
// -breaker-open-for; -no-breaker disables).
//
// With -replicas R > 1 every user lives on R consecutive ring shards:
// ingest replicates each sub-batch to all R owners (durable once ONE
// acks; replicas that missed a batch are marked stale, excluded from
// reads, and healed by background hint redelivery bounded by
// -max-hint-bytes), and top-k sends one leg per shard covering the
// ring segments that shard leads; on error, timeout, staleness, or an
// open breaker each of those segments fails over down its own replica
// set — so any single shard can die without partial answers.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geofootprint/internal/breaker"
	"geofootprint/internal/hashring"
	"geofootprint/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("georouter: ")

	mapPath := flag.String("map", "", "shard map JSON file (required)")
	addr := flag.String("addr", ":9090", "listen address")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "shard /healthz polling period")
	shardTimeout := flag.Duration("shard-timeout", 2*time.Second, "per-attempt deadline for one shard request")
	retries := flag.Int("retries", 3, "max attempts per shard request (1: no retries)")
	retryBase := flag.Duration("retry-base", 25*time.Millisecond, "backoff base between shard retries")
	retryCap := flag.Duration("retry-cap", time.Second, "backoff cap between shard retries")
	maxInflight := flag.Int("max-inflight-per-shard", 64, "admission gate: concurrent in-flight requests per shard (0: unlimited)")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "deadline for one whole /v1/topk fan-out (0: none)")
	replicas := flag.Int("replicas", 1, "replication factor: ring shards holding each user (clamped to shard count)")
	maxHintBytes := flag.Int("max-hint-bytes", 1<<20, "per-replica budget for queued missed-ingest batches (0: default, negative: disable hinting)")
	noBreaker := flag.Bool("no-breaker", false, "disable per-shard circuit breakers")
	brkWindow := flag.Int("breaker-window", 16, "circuit breaker: sliding outcome window length")
	brkThreshold := flag.Float64("breaker-threshold", 0.5, "circuit breaker: failure fraction over the window that trips it")
	brkMinSamples := flag.Int("breaker-min-samples", 4, "circuit breaker: outcomes required before the threshold is consulted")
	brkOpenFor := flag.Duration("breaker-open-for", 2*time.Second, "circuit breaker: open period before the half-open probe")
	readTimeout := flag.Duration("read-timeout", defaultReadTimeout, "max duration for reading an entire request")
	readHeaderTimeout := flag.Duration("read-header-timeout", defaultReadHeaderTimeout, "max duration for reading request headers")
	writeTimeout := flag.Duration("write-timeout", defaultWriteTimeout, "max duration for writing a response")
	idleTimeout := flag.Duration("idle-timeout", defaultIdleTimeout, "how long an idle keep-alive connection is kept")
	flag.Parse()

	if *mapPath == "" {
		log.Print("need -map: a shard map JSON file")
		flag.Usage()
		os.Exit(2)
	}
	m, err := hashring.LoadMap(*mapPath)
	if err != nil {
		log.Fatal(err)
	}
	gate := *maxInflight
	if gate == 0 {
		gate = -1 // flag 0 means unlimited; Config 0 means default
	}
	r, err := router.New(router.Config{
		Map:                 m,
		RequestTimeout:      *shardTimeout,
		MaxAttempts:         *retries,
		RetryBase:           *retryBase,
		RetryCap:            *retryCap,
		MaxInflightPerShard: gate,
		HealthInterval:      *healthEvery,
		Replicas:            *replicas,
		MaxHintBytes:        *maxHintBytes,
		DisableBreaker:      *noBreaker,
		Breaker: breaker.Config{
			Window:     *brkWindow,
			Threshold:  *brkThreshold,
			MinSamples: *brkMinSamples,
			OpenFor:    *brkOpenFor,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	for _, h := range r.Shards() {
		log.Printf("shard %s at %s: %s (epoch %d, %d users)", h.ID, h.Addr, h.State, h.Epoch, h.Users)
	}
	log.Printf("routing %d shards (replication factor %d); listening on %s", len(r.Shards()), *replicas, *addr)

	c := &coordinator{r: r, queryTimeout: *queryTimeout, logger: log.Default()}
	httpSrv := newHTTPServer(httpOptions{
		addr:              *addr,
		readTimeout:       *readTimeout,
		readHeaderTimeout: *readHeaderTimeout,
		writeTimeout:      *writeTimeout,
		idleTimeout:       *idleTimeout,
	}, c.handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("%s: shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}
