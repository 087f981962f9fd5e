// Command geoserve exposes a FootprintDB over HTTP/JSON — the
// integration point for recommender systems and market-analysis
// dashboards.
//
// Two modes, by data source:
//
//	geoserve -db partA.db -addr :8080
//
// serves a static corpus built offline (geoextract). Alternatively,
//
//	geoserve -wal ingest.wal -snapshot ingest.snap -addr :8080
//
// serves a live corpus fed through POST /v1/ingest: on startup the
// durable state is recovered (snapshot + WAL tail replay), and every
// acknowledged write — sample batch, PUT or DELETE — survives a crash. The WAL fsync policy is
// -sync (batch|interval|none); -snapshot-every bounds replay work by
// checkpointing after that many WAL records. On SIGINT/SIGTERM the
// server drains in-flight requests, then checkpoints and closes the
// pipeline, so the next start replays nothing.
//
// Serving is epoch-based MVCC (see internal/server): queries pin an
// immutable snapshot and run lock-free; every mutation publishes the
// next epoch. -cache-size enables the epoch-keyed result cache, and
// -stats-interval logs the epoch/cache counters that /healthz and
// /v1/ingest/stats expose.
//
// As a cluster shard behind georouter, /v1/query additionally accepts
// a segment restriction (the replica tuple whose users this sub-query
// covers — see internal/server segment.go), and /healthz reports
// ingest_seq, the last acknowledged WAL LSN (the last record appended;
// on stable storage only under -sync batch), which the router compares
// against its acked high-water mark to detect replicas that restarted
// onto an older snapshot.
//
// Endpoints: see internal/server. Quick check:
//
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/users/42/similar?k=5&exclude_self=true
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"geofootprint/internal/extract"
	"geofootprint/internal/ingest"
	"geofootprint/internal/server"
	"geofootprint/internal/store"
	"geofootprint/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("geoserve: ")

	dbPath := flag.String("db", "", "static FootprintDB path (exclusive with -wal)")
	addr := flag.String("addr", ":8080", "listen address")

	walPath := flag.String("wal", "", "write-ahead log path; enables streaming ingestion")
	snapPath := flag.String("snapshot", "", "snapshot path (default: <wal>.snap)")
	syncMode := flag.String("sync", "batch", "WAL fsync policy: batch|interval|none")
	syncEvery := flag.Duration("sync-interval", 50*time.Millisecond, "fsync period under -sync interval")
	snapEvery := flag.Int("snapshot-every", 4096, "checkpoint after this many WAL records (0: only on shutdown)")
	gap := flag.Float64("session-gap", 60, "seconds of silence that end a user's session")
	eps := flag.Float64("eps", 0.02, "RoI extraction ε (spatial closeness)")
	tau := flag.Int("tau", 30, "RoI extraction τ (minimum dwell samples)")

	shardID := flag.String("shard-id", "", "this instance's id in a georouter shard map; reported by /healthz for routing cross-checks (empty: single-node)")
	cacheSize := flag.Int("cache-size", 0, "epoch-keyed result cache capacity in encoded answers; a full cache admits an answer only over a less frequently asked LRU victim (0: cache disabled)")
	statsEvery := flag.Duration("stats-interval", 0, "log epoch/cache serving stats at this period (0: only on shutdown)")
	allowCorrupt := flag.Bool("allow-corrupt-snapshot", false, "serve despite a corrupt snapshot file: static mode refuses, streaming mode rebuilds from the WAL alone; /healthz reports degraded")
	maxInflight := flag.Int("max-inflight-queries", 0, "cap on concurrent top-k queries; excess get 429 (0: unlimited)")
	queryTimeout := flag.Duration("query-timeout", 0, "default per-request query deadline when the client sends no ?timeout_ms= (0: none)")
	maxQueryTimeout := flag.Duration("max-query-timeout", server.DefaultMaxTimeout, "hard cap on any query deadline, including client-requested ones")
	readTimeout := flag.Duration("read-timeout", defaultReadTimeout, "max duration for reading an entire request")
	readHeaderTimeout := flag.Duration("read-header-timeout", defaultReadHeaderTimeout, "max duration for reading request headers (slow-loris guard)")
	writeTimeout := flag.Duration("write-timeout", defaultWriteTimeout, "max duration for writing a response")
	idleTimeout := flag.Duration("idle-timeout", defaultIdleTimeout, "how long an idle keep-alive connection is kept")
	flag.Parse()

	srvOpts := server.Options{
		MaxInflightQueries: *maxInflight,
		DefaultTimeout:     *queryTimeout,
		MaxTimeout:         *maxQueryTimeout,
		CacheSize:          *cacheSize,
		ShardID:            *shardID,
	}

	if (*dbPath == "") == (*walPath == "") {
		log.Print("need exactly one data source: -db (static) or -wal (streaming)")
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	var (
		db   *store.FootprintDB
		pipe *ingest.Pipeline
	)
	var snapErr error
	if *dbPath != "" {
		var err error
		if db, err = store.Open(*dbPath); err != nil {
			if errors.Is(err, store.ErrCorruptSnapshot) {
				// A static corpus has no WAL to rebuild from, so
				// -allow-corrupt-snapshot cannot help here; name the
				// remedy instead of dying with a generic load error.
				log.Fatalf("%v\nthe file is damaged or not a database; rebuild it with geoextract or restore from a backup (geomigrate verify diagnoses the file)", err)
			}
			log.Fatal(err)
		}
	}

	var srv *server.Server
	if *walPath != "" {
		if *snapPath == "" {
			*snapPath = *walPath + ".snap"
		}
		policy, err := wal.ParsePolicy(*syncMode)
		if err != nil {
			log.Fatal(err)
		}
		cfg := ingest.Config{
			WALPath:              *walPath,
			SnapshotPath:         *snapPath,
			Extract:              extract.Config{Epsilon: *eps, Tau: *tau},
			SessionGap:           *gap,
			Sync:                 policy,
			SyncInterval:         *syncEvery,
			SnapshotEvery:        *snapEvery,
			AllowCorruptSnapshot: *allowCorrupt,
		}
		rec, err := ingest.Recover(cfg)
		if err != nil {
			if errors.Is(err, store.ErrCorruptSnapshot) {
				log.Fatalf("%v\nthe snapshot file is damaged; restore it from a backup, or pass -allow-corrupt-snapshot to rebuild from the WAL alone (records checkpointed before the damage are lost)", err)
			}
			log.Fatal(err)
		}
		if rec.Damaged {
			log.Printf("WAL tail was torn or corrupt; recovered the intact prefix (%d records)", rec.Replayed)
		}
		if rec.SnapshotErr != nil {
			snapErr = rec.SnapshotErr
			log.Printf("snapshot corrupt, serving WAL-only state (-allow-corrupt-snapshot): %v", snapErr)
		}
		log.Printf("recovered %d users from snapshot + %d WAL records", rec.DB.Len(), rec.Replayed)
		db = rec.DB
		srv = server.NewWithOptions(db, srvOpts)
		if pipe, err = srv.AttachPipeline(cfg, rec.State); err != nil {
			log.Fatal(err)
		}
	} else {
		srv = server.NewWithOptions(db, srvOpts)
	}
	if snapErr != nil {
		srv.SetSnapshotError(snapErr)
	}
	log.Printf("loaded %d users (%d regions) in %.2fs; listening on %s",
		db.Len(), db.NumRegions(), time.Since(start).Seconds(), *addr)
	if *cacheSize > 0 {
		log.Printf("result cache enabled: %d entries, keyed by (epoch, method, user or query, k), admitted by frequency", *cacheSize)
	}
	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for range t.C {
				logServingStats(srv)
			}
		}()
	}

	httpSrv := newHTTPServer(httpOptions{
		addr:              *addr,
		readTimeout:       *readTimeout,
		readHeaderTimeout: *readHeaderTimeout,
		writeTimeout:      *writeTimeout,
		idleTimeout:       *idleTimeout,
	}, srv.Handler())
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
	// Shed new arrivals first — the drain gate turns them into 503 +
	// Retry-After so load balancers fail over during the grace period —
	// then drain in-flight requests (ingest acks must not be dropped),
	// then checkpoint and close the pipeline.
	srv.SetDraining(true)
	logServingStats(srv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if pipe != nil {
		if err := pipe.Close(); err != nil {
			log.Fatalf("pipeline close: %v", err)
		}
		log.Print("checkpointed; WAL empty")
	}
}

// logServingStats reports the epoch lifecycle counters and, when the
// result cache is on, its hit/miss/evict/reject accounting — the same numbers
// /healthz and /v1/ingest/stats expose over HTTP.
func logServingStats(srv *server.Server) {
	es := srv.EpochStats()
	log.Printf("epoch: seq=%d published=%d reclaimed=%d live=%d pinned=%d",
		es.Seq, es.Published, es.Reclaimed, es.Live, es.Pins)
	if cs, ok := srv.CacheStats(); ok {
		log.Printf("cache: hits=%d misses=%d evictions=%d rejected=%d purged=%d entries=%d/%d",
			cs.Hits, cs.Misses, cs.Evictions, cs.Rejected, cs.Purged, cs.Entries, cs.Cap)
	}
}
