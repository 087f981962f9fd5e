package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"geofootprint/internal/cache"
	"geofootprint/internal/colstore"
	"geofootprint/internal/core"
	"geofootprint/internal/engine"
	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
	"geofootprint/internal/ingest"
	"geofootprint/internal/router"
	"geofootprint/internal/search"
	"geofootprint/internal/server"
	"geofootprint/internal/sketch"
	"geofootprint/internal/store"
	"geofootprint/internal/synth"
	"geofootprint/internal/traj"
	"geofootprint/internal/wal"
)

// The traced run. It takes a sample of the workload's own requests and
// replays each through every layer's public entry point, innermost
// first, in this process; then it sends the same requests to live
// servers of all three topologies. Every call is a span; medians over
// the sample are the per-layer metrics; the spans of the workload's own
// path give its self-time shares.
//
// All layers are measured in every traced run, whichever workload it
// samples: the numbers answer "what do this workload's inputs cost at
// that layer", and the share table says which layers its requests
// actually cross.

// Span layers. The share table groups by these.
const (
	layerCore    = "core"
	layerRtree   = "rtree"
	layerSketch  = "sketch"
	layerSearch  = "search"
	layerEngine  = "engine"
	layerCache   = "cache"
	layerStore   = "store"
	layerServer  = "server"
	layerHTTP    = "http"
	layerSegment = "server.segment"
	layerRouter  = "router"
	layerCoord   = "router.coordinator"
	layerWAL     = "wal"
	layerIngest  = "ingest"
	layerNewView = "engine.newview"
	layerFreeze  = "store.append_freeze"
)

// Trace ids: request i of the sample is trace base+i+1, one base per
// path it is sent down.
const (
	traceRange    = 10000
	missTraceBase = 0 * traceRange // reads served by computing
	hitTraceBase  = 1 * traceRange // the same reads served from the cache
	clusterBase   = 2 * traceRange // the same reads served by the cluster
	applyBase     = 3 * traceRange // ingest batches
	overheadBase  = 4 * traceRange // reads re-sent to price the tracing itself
)

// samples collects one float per sampled request under a metric name;
// the metric is their median.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) addDur(name string, d time.Duration, unit time.Duration) {
	s.add(name, float64(d)/float64(unit))
}

// sampleRequests draws up to n requests from the head of the stream,
// skipping repeats of a user so that the first send of each is a cache
// miss and the second a hit.
func sampleRequests(st stream, n int) []request {
	seen := make(map[string]bool)
	var out []request
	for i := 0; len(out) < n && i < 50*n; i++ {
		rq := st.at(i)
		key := rq.path + string(rq.body)
		if !seen[key] {
			seen[key] = true
			out = append(out, rq)
		}
	}
	return out
}

// tracedRun is one traced run: its inputs, and what the layers have
// yielded so far.
type tracedRun struct {
	*env
	ctx    context.Context
	seed   int64
	secs   float64
	stream stream        // the workload's reads, addressed to a single server
	sample []request     // distinct requests from the head of stream
	in     *ingestStream // the seed's ingest batches, half as many as requests

	tr   *tracer
	sm   samples           // per-request observations; the metric is their median
	m    map[string]metric // metrics that are one number per run
	live *phaseStats       // every request sent to a live server
	// handlerHit is the in-process handler's time for each sampled
	// request served from the cache; liveSingle subtracts it from the
	// live round trip.
	handlerHit []time.Duration
}

// runTraced is the traced run of workload w.
func (e *env) runTraced(ctx context.Context, w workload, seed int64, secs float64) (*runReport, []span, error) {
	n := min(max(int(10*secs), 20), 200)
	if e.smoke {
		n = 20
	}
	// A single server answers at /v1/query the body georouter takes at
	// /v1/topk; liveCluster sends the sampled bodies to the router.
	st := w.stream(e.corpus.db, seed, false)
	in, err := newIngestStream(e.corpus.db, seed, n/2*ingestBatchSamples)
	if err != nil {
		return nil, nil, err
	}
	run := &tracedRun{
		env: e, ctx: ctx, seed: seed, secs: secs, stream: st, sample: sampleRequests(st, n), in: in,
		tr: newTracer(), sm: make(samples), m: make(map[string]metric), live: &phaseStats{},
	}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"read layers", run.readLayers}, {"write layers", run.writeLayers}, {"set-up layers", run.setupLayers},
		{"live single server", run.liveSingle}, {"live cluster", run.liveCluster}, {"live ingest server", run.liveIngest},
	} {
		if err := step.fn(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", step.name, err)
		}
	}

	m := run.m
	for name, v := range run.sm {
		m[name] = metric{Value: median(v)}
	}
	// Ratios of medians, from the medians just taken.
	m["engine.parallel_speedup"] = metric{Value: ratio(m["search.uc_topk_us"].Value, m["engine.uc_topk_us"].Value)}
	m["sketch.refine_ratio"] = metric{Value: ratio(m["sketch.refined_per_query"].Value, m["search.candidates_per_query"].Value)}
	m["server.self_us"] = metric{Value: m["server.handler_query_us"].Value - m["engine.uc_topk_us"].Value}
	m["trace.overhead_ratio"] = metric{Value: ratio(m["trace.traced_rtt_us"].Value, m["trace.untraced_rtt_us"].Value)}
	delete(m, "trace.traced_rtt_us")
	delete(m, "trace.untraced_rtt_us")
	for name, v := range m {
		v.Unit = layerUnits[name]
		m[name] = v
	}

	byPath := make(map[string]map[string]float64)
	pathUs := make(map[string]float64)
	for _, p := range w.paths {
		var own []span
		var whole []float64
		for _, s := range run.tr.spans {
			if s.TraceID > p.base && s.TraceID <= p.base+traceRange {
				own = append(own, s)
				if s.ParentID == 0 {
					whole = append(whole, us(s.dur()))
				}
			}
		}
		byPath[p.name] = shares(selfTimes(own))
		pathUs[p.name] = median(whole)
	}
	rep := &runReport{
		Workload: w.name, Seed: seed, Seconds: secs, Traced: true, Shares: byPath, PathUs: pathUs,
		Result: result{Correct: true, Attempted: run.live.attempted, Failed: run.live.failed, Metrics: m},
	}
	if run.live.firstErr != nil {
		fmt.Fprintf(logw, "%s: first failed request: %v\n", w.name, run.live.firstErr)
	}
	return rep, run.tr.spans, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readLayers replays every sampled request through the read path in
// this process: kernel, candidate source, serial search, engine, cache,
// epoch pin, HTTP handler. It returns the in-process handler's
// per-request times in run.handlerHit.
func (run *tracedRun) readLayers() (err error) {
	db := run.corpus.db
	view := engine.NewView(db, 0)
	idx := view.Index()
	roi := search.NewRoIIndex(db, search.BuildSTR, 0)
	srv := server.NewWithOptions(db, server.Options{CacheSize: cacheSize, Logger: log.New(io.Discard, "", 0)})
	h := srv.Handler()
	ch := cache.New(cacheSize)
	epochs := store.NewEpochStore()
	epochs.Publish(db, nil)

	var cands []int
	for i, rq := range run.sample {
		q := rq.query
		qnorm := core.Norm(q)
		miss := run.tr.chain(missTraceBase + i + 1)
		hit := run.tr.chain(hitTraceBase + i + 1)

		// Both production methods are measured on every request; the
		// one the workload asks for also leaves spans.
		for _, method := range []string{"", "sketch"} {
			c := miss
			if method != rq.search {
				c = nil
			}
			d := c.time(layerRtree, "UserCentricIndex.Candidates", "search", func() map[string]float64 {
				cands = idx.Candidates(q.MBR(), cands[:0])
				return map[string]float64{"candidates": float64(len(cands))}
			})
			refine := cands
			if method == "" {
				run.sm.addDur("rtree.candidates_us", d, time.Microsecond)
				run.sm.add("search.candidates_per_query", float64(len(cands)))
			} else {
				var qsk sketch.Sketch
				build := time.Duration(0)
				d := c.time(layerSketch, "sketch.Build+UpperBound", "search", func() map[string]float64 {
					start := time.Now()
					qsk = sketch.Build(q, db.SketchParams)
					build = time.Since(start)
					for _, u := range cands {
						sink += sketch.UpperBound(db.UserSketchDot(u, &qsk), db.Norms[u], qnorm)
					}
					return map[string]float64{"bounded": float64(len(cands))}
				})
				run.sm.addDur("sketch.build_us", build, time.Microsecond)
				if len(cands) > 0 {
					run.sm.add("sketch.dot_ns_per_user", float64(d-build)/float64(len(cands)))
				}
				_, st := idx.TopKSketchStats(q, topK)
				run.sm.add("sketch.refined_per_query", float64(st.Refined))
				scored := idx.SketchCandidates(q, &qsk, qnorm)
				refine = refine[:0]
				for _, sc := range scored[:st.Refined] {
					refine = append(refine, sc.User)
				}
			}
			d = c.time(layerCore, "FootprintDB.UserSimilarity", "search", func() map[string]float64 {
				for _, u := range refine {
					sink += db.UserSimilarity(u, q, qnorm)
				}
				return map[string]float64{"pairs": float64(len(refine))}
			})
			if method == "" {
				run.sm.add("core.pairs_per_query", float64(len(refine)))
				if len(refine) > 0 {
					run.sm.add("core.join_ns_per_pair", float64(d)/float64(len(refine)))
				}
			}

			name := map[string]string{"": "uc", "sketch": "sketch"}[method]
			d = c.time(layerSearch, "search", "engine", func() map[string]float64 {
				if method == "" {
					idx.TopK(q, topK)
				} else {
					idx.TopKSketch(q, topK)
				}
				return nil
			})
			run.sm.addDur("search."+name+"_topk_us", d, time.Microsecond)
			d = c.time(layerEngine, "engine", "cache", func() map[string]float64 {
				_, _, err = view.TopKCached(run.ctx, nil, 0, method, q, topK)
				return nil
			})
			if err != nil {
				return err
			}
			run.sm.addDur("engine."+name+"_topk_us", d, time.Microsecond)
		}

		// The cache around the engine: a miss computes, a hit does not.
		key := cache.Key{Epoch: 1, Method: "m", K: topK, Query: cache.FootprintKey(q)}
		var inner time.Duration
		d := miss.time(layerCache, "cache", "handler", func() map[string]float64 {
			_, _, err = ch.GetOrCompute(run.ctx, key, func() (any, error) {
				start := time.Now()
				res, _, err := view.TopKCached(run.ctx, nil, 0, rq.search, q, topK)
				inner = time.Since(start)
				return res, err
			})
			return map[string]float64{"hit": 0}
		})
		if err != nil {
			return err
		}
		run.sm.add("cache.miss_overhead_ns", float64(d-inner))
		d = hit.time(layerCache, "cache", "handler", func() map[string]float64 {
			_, _, err = ch.GetOrCompute(run.ctx, key, nil)
			return map[string]float64{"hit": 1}
		})
		if err != nil {
			return err
		}
		run.sm.add("cache.hit_ns", float64(d))

		// Pinning the epoch is tens of nanoseconds: time a thousand.
		const pins = 1000
		start := time.Now()
		for j := 0; j < pins; j++ {
			epochs.Acquire().Release()
		}
		pin := time.Since(start) / pins
		run.sm.add("store.pin_ns", float64(pin))
		for _, c := range []*chain{miss, hit} {
			c.time(layerStore, "pin", "handler", func() map[string]float64 {
				epochs.Acquire().Release()
				return nil
			})
		}

		// The handler in process: first call computes, second hits.
		serve := func(c *chain) (time.Duration, int, error) {
			rec := httptest.NewRecorder()
			var body io.Reader
			if rq.body != nil {
				body = bytes.NewReader(rq.body)
			}
			hr := httptest.NewRequest(rq.method, rq.path, body)
			d := c.time(layerServer, "handler", "live", func() map[string]float64 {
				h.ServeHTTP(rec, hr)
				return map[string]float64{"resp_bytes": float64(rec.Body.Len())}
			})
			_, err := checkAnswer(rec.Code, rec.Body.Bytes(), false)
			return d, rec.Body.Len(), err
		}
		d, respBytes, err := serve(miss)
		if err != nil {
			return fmt.Errorf("in-process handler: %w", err)
		}
		run.sm.addDur("server.handler_query_us", d, time.Microsecond)
		run.sm.add("server.resp_bytes", float64(respBytes))
		if d, _, err = serve(hit); err != nil {
			return fmt.Errorf("in-process handler: %w", err)
		}
		run.sm.addDur("server.handler_hit_us", d, time.Microsecond)
		run.handlerHit = append(run.handlerHit, d)

		// The Section 6 methods no traffic uses: cover for the day they
		// are folded into one path. A tenth of the sample is enough.
		if i%10 == 0 {
			for name, fn := range map[string]func(){
				"search.linear_topk_us":    func() { run.oracle.TopK(q, topK) },
				"search.iterative_topk_us": func() { roi.TopKIterative(q, topK) },
				"search.batch_topk_us":     func() { roi.TopKBatch(q, topK) },
			} {
				start := time.Now()
				fn()
				run.sm.addDur(name, time.Since(start), time.Microsecond)
			}
		}
	}

	// Merging the answers of the cluster's twelve segments, and purging
	// a full cache: neither depends on the request.
	var parts [][]search.Result
	for i := 0; i < 12; i++ {
		parts = append(parts, run.oracle.TopK(run.sample[i%len(run.sample)].query, topK))
	}
	for i := 0; i < 50; i++ {
		start := time.Now()
		engine.MergeParts(parts, topK)
		run.sm.addDur("engine.merge_us", time.Since(start), time.Microsecond)
	}
	for i := 0; i < 5; i++ {
		full := cache.New(cacheSize)
		for j := 0; j < cacheSize; j++ {
			k := cache.Key{Epoch: 1, K: j}
			if _, _, err := full.GetOrCompute(run.ctx, k, func() (any, error) { return nil, nil }); err != nil {
				return err
			}
		}
		start := time.Now()
		full.Purge(2)
		run.sm.addDur("cache.purge_us", time.Since(start), time.Microsecond)
	}
	return nil
}

// sink keeps the compiler from discarding kernel calls timed for their
// duration alone.
var sink float64

// publishSink is the serving layer's ingest sink rebuilt from public
// pieces, with a span around each: append the batch's RoIs to the epoch
// builder and freeze, build the next epoch's view, purge the cache.
type publishSink struct {
	builder *store.EpochBuilder
	cache   *cache.Cache
	epoch   uint64
	c       *chain // the batch being applied
	sm      samples
}

func (s *publishSink) ApplyBatch(updates []ingest.UserRoIs) {
	var db *store.FootprintDB
	d := s.c.time(layerFreeze, "EpochBuilder.AppendRoIs+Freeze", "apply", func() map[string]float64 {
		for _, u := range updates {
			s.builder.AppendRoIs(u.User, core.FromRoIs(u.RoIs, core.UnitWeight))
		}
		db = s.builder.Freeze()
		return map[string]float64{"users": float64(len(updates))}
	})
	s.sm.addDur("store.append_freeze_us", d, time.Microsecond)
	d = s.c.time(layerNewView, "engine.NewView", "apply", func() map[string]float64 {
		engine.NewView(db, 0)
		return map[string]float64{"users": float64(db.Len())}
	})
	s.sm.addDur("engine.newview_ms", d, time.Millisecond)
	s.epoch++
	s.c.time(layerCache, "Cache.Purge", "apply", func() map[string]float64 {
		s.cache.Purge(s.epoch)
		return nil
	})
}

func (s *publishSink) WithDB(fn func(db *store.FootprintDB)) { fn(s.builder.DB()) }

// writeLayers replays the seed's ingest batches through the write path
// in this process: NDJSON parse, WAL append and fsync, the streaming
// extractor, the pipeline without a publish, and the pipeline with the
// serving layer's publish.
func (run *tracedRun) writeLayers() error {
	dir, err := os.MkdirTemp(run.work, "write-")
	if err != nil {
		return err
	}
	// Parse, and the log under the server's policy (fsync per append)
	// and with the fsync taken apart.
	durable, err := wal.Open(filepath.Join(dir, "batch.wal"), wal.Options{Policy: wal.SyncEveryAppend})
	if err != nil {
		return err
	}
	defer durable.Close()
	lazy, err := wal.Open(filepath.Join(dir, "none.wal"), wal.Options{Policy: wal.SyncNone})
	if err != nil {
		return err
	}
	defer lazy.Close()
	bodies := make([][]byte, len(run.in.batches))
	appendTimes := make([]time.Duration, len(run.in.batches))
	for i, batch := range run.in.batches {
		bodies[i] = ndjson(batch)
		start := time.Now()
		parsed, err := ingest.ParseNDJSON(bytes.NewReader(bodies[i]), len(batch))
		if err != nil || len(parsed) != len(batch) {
			return fmt.Errorf("ParseNDJSON: %d of %d samples, %v", len(parsed), len(batch), err)
		}
		run.sm.add("ingest.parse_ns_per_sample", float64(time.Since(start))/float64(len(batch)))
		payload := ingest.EncodeBatch(nil, batch)
		start = time.Now()
		if _, err := durable.Append(payload); err != nil {
			return err
		}
		appendTimes[i] = time.Since(start)
		run.sm.addDur("wal.append_us_per_batch", appendTimes[i], time.Microsecond)
		if _, err := lazy.Append(payload); err != nil {
			return err
		}
		start = time.Now()
		if err := lazy.Sync(); err != nil {
			return err
		}
		run.sm.addDur("wal.fsync_us", time.Since(start), time.Microsecond)
	}
	run.m["wal.bytes_per_sample"] = metric{Value: float64(durable.Size()) / float64(run.in.samples)}

	// Algorithm 1 streaming, one extractor per user as the sessionizer
	// keeps them.
	extractors := make(map[int]*extract.Extractor)
	start := time.Now()
	for _, batch := range run.in.batches {
		for _, s := range batch {
			ex := extractors[s.User]
			if ex == nil {
				if ex, err = extract.NewExtractor(extractCfg, func(extract.RoI) {}); err != nil {
					return err
				}
				extractors[s.User] = ex
			}
			ex.Push(traj.Location{P: geom.Point{X: s.X, Y: s.Y}, T: s.T})
		}
	}
	run.m["extract.push_ns_per_sample"] = metric{Value: float64(time.Since(start)) / float64(run.in.samples)}

	// The pipeline into a bare database: WAL (no fsync), sessionizer,
	// extractor, append — no epoch, no index.
	cfg := ingest.Config{
		WALPath: filepath.Join(dir, "plain.wal"), SnapshotPath: filepath.Join(dir, "plain.snap"),
		Extract: extractCfg, Sync: wal.SyncNone, QueueDepth: len(run.in.batches) + 1,
	}
	plain, err := ingest.New(cfg, &ingest.DBSink{DB: &store.FootprintDB{Name: "plain"}}, nil)
	if err != nil {
		return err
	}
	start = time.Now()
	for _, batch := range run.in.batches {
		if _, err := plain.Ingest(batch); err != nil {
			return err
		}
	}
	if err := plain.Drain(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	run.m["ingest.pipeline_samples_per_s"] = metric{Value: float64(run.in.samples) / elapsed.Seconds()}
	run.m["ingest.rois_per_ksample"] = metric{Value: float64(plain.Stats().RoIs) / (float64(run.in.samples) / 1000)}
	if err := plain.Close(); err != nil {
		return err
	}

	// The pipeline into the serving layer's publish, one batch at a
	// time so each batch's apply is one trace.
	// The builder mutates the database it is given, so it gets its own
	// load of the corpus; the shared corpus stays what the oracle scans.
	own, err := store.Load(run.corpus.path)
	if err != nil {
		return err
	}
	ps := &publishSink{builder: store.NewEpochBuilder(own), cache: cache.New(cacheSize), epoch: 1, sm: run.sm}
	cfg.WALPath, cfg.SnapshotPath = filepath.Join(dir, "publish.wal"), filepath.Join(dir, "publish.snap")
	pub, err := ingest.New(cfg, ps, nil)
	if err != nil {
		return err
	}
	for i, batch := range run.in.batches {
		c := run.tr.chain(applyBase + i + 1)
		ps.c = c
		var ierr error
		c.time(layerIngest, "apply", "", func() map[string]float64 {
			if _, ierr = pub.Ingest(batch); ierr == nil {
				ierr = pub.Drain()
			}
			return map[string]float64{"samples": float64(len(batch))}
		})
		if ierr != nil {
			return ierr
		}
		// The durable append this batch would have cost the live server,
		// measured above, as a child of its apply.
		c.record(layerWAL, "Log.Append", "apply", appendTimes[i])
	}
	if err := pub.Close(); err != nil {
		return err
	}

	// The STR bulk load inside NewView, on its own.
	for i := 0; i < 5; i++ {
		start := time.Now()
		search.NewUserCentricIndex(run.corpus.db, search.BuildSTR, 0)
		run.sm.addDur("search.str_build_ms", time.Since(start), time.Millisecond)
	}
	return nil
}

// setupLayers measures what a server pays before its first answer:
// opening the columnar snapshot either way, and the offline pipeline
// (extraction, norms) the corpus came from.
func (run *tracedRun) setupLayers() error {
	for _, mode := range []struct {
		name string
		mode colstore.Mode
	}{{"colstore.load_mmap_ms", colstore.ModeMmap}, {"colstore.load_read_ms", colstore.ModeRead}} {
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := store.LoadColumnar(run.corpus.path, mode.mode); err != nil {
				return err
			}
			run.sm.addDur(mode.name, time.Since(start), time.Millisecond)
		}
	}
	fi, err := os.Stat(run.corpus.path)
	if err != nil {
		return err
	}
	run.m["store.snapshot_bytes_per_region"] = metric{Value: float64(fi.Size()) / float64(run.corpus.db.NumRegions())}

	const users = 200
	ds, _, err := synth.Generate(synth.NewConfig("extract", users, run.seed))
	if err != nil {
		return err
	}
	start := time.Now()
	extract.ExtractDataset(ds, extractCfg, 0)
	run.m["extract.footprints_per_s"] = metric{Value: users / time.Since(start).Seconds()}

	db := run.corpus.db
	fresh, err := store.New("norms", db.IDs, db.Footprints)
	if err != nil {
		return err
	}
	start = time.Now()
	fresh.ComputeNorms(0)
	run.m["core.norms_per_s"] = metric{Value: float64(db.Len()) / time.Since(start).Seconds()}
	return nil
}

// liveSingle sends the sample to a live single server: each request
// twice (a miss, then a hit), the outermost span of its read traces.
// Then it runs the workload's own stream for a moment and reads the
// cache counters the server reports.
func (run *tracedRun) liveSingle() error {
	r, err := run.startRig(run.ctx, rigSingle)
	if err != nil {
		return err
	}
	defer r.stop()
	t := target{client: newClient(2), base: r.url, conns: 2, stream: run.stream}
	defer t.client.CloseIdleConnections()

	for i, rq := range run.sample {
		for pass, c := range []*chain{run.tr.chain(missTraceBase + i + 1), run.tr.chain(hitTraceBase + i + 1)} {
			var status int
			var body []byte
			var err error
			begin := time.Now()
			d := c.time(layerHTTP, "live", "", func() map[string]float64 {
				status, body, err = send(t.client, t.base, rq)
				return map[string]float64{"resp_bytes": float64(len(body))}
			})
			raw := run.live.observe(begin, status, body, err, false)
			if raw != nil && !bytes.Equal(raw, answerJSON(run.oracle, rq.query)) {
				return fmt.Errorf("request %d: live answer differs from LinearScan: %s", i, raw)
			}
			if pass == 1 {
				run.sm.addDur("http.loopback_us", d-run.handlerHit[i], time.Microsecond)
			}
		}
		// Tracing overhead: the same cached request timed bare and
		// through a recorded span, in alternating order.
		for pass := 0; pass < 2; pass++ {
			var status int
			var body []byte
			var err error
			begin := time.Now()
			if pass == i%2 {
				status, body, err = send(t.client, t.base, rq)
				run.sm.addDur("trace.untraced_rtt_us", time.Since(begin), time.Microsecond)
			} else {
				d := run.tr.chain(overheadBase+i+1).time(layerHTTP, "live", "", func() map[string]float64 {
					status, body, err = send(t.client, t.base, rq)
					return map[string]float64{"resp_bytes": float64(len(body))}
				})
				run.sm.addDur("trace.traced_rtt_us", d, time.Microsecond)
			}
			run.live.observe(begin, status, body, err, false)
		}
	}

	// The counters are read across a slice of the workload's own
	// traffic, after an equal slice has warmed the cache.
	var next atomic.Int64
	next.Store(int64(len(run.sample)))
	slice := seconds(min(0.15*run.secs, 3))
	run.live.merge(closedLoop(t, &next, slice))
	before, err := run.health(r.url)
	if err != nil {
		return err
	}
	run.live.merge(closedLoop(t, &next, slice))
	after, err := run.health(r.url)
	if err != nil {
		return err
	}
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	run.m["cache.hit_ratio"] = metric{Value: ratio(hits, hits+misses)}
	run.m["cache.evictions"] = metric{Value: float64(after.Cache.Evictions - before.Cache.Evictions)}
	return nil
}

// liveCluster sends the head of the sample to a live cluster three
// ways: each of the twelve segment legs straight to a shard, the
// fan-out from a router in this process, and the whole trip through
// georouter.
func (run *tracedRun) liveCluster() error {
	r, err := run.startRig(run.ctx, rigCluster)
	if err != nil {
		return err
	}
	defer r.stop()
	client := newClient(2)
	defer client.CloseIdleConnections()
	rt, err := router.New(router.Config{
		Map: shardMap(r.shards), Replicas: clusterReplicas, HealthInterval: -1,
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	rt.CheckHealth(run.ctx)

	ring := run.corpus.ring
	segs := ring.Segments(clusterReplicas)
	ids := make([]string, clusterShards)
	for i := range ids {
		ids[i] = shardID(i)
	}
	// What the router appends to a query for each segment: the ring's
	// shard list, R, and the replica tuple the leg is restricted to.
	segJSON := make([][]byte, len(segs))
	for k, tuple := range segs {
		members := make([]string, len(tuple))
		for j, s := range tuple {
			members[j] = ids[s]
		}
		seg, err := json.Marshal(map[string]any{"shards": ids, "r": clusterReplicas, "members": members})
		if err != nil {
			return err
		}
		segJSON[k] = append(append([]byte(`,"segment":`), seg...), '}')
	}
	failedOver := 0
	for i, rq := range run.sample[:min(len(run.sample), 40)] {
		body := queryBody(rq.query)
		want := answerJSON(run.oracle, rq.query)
		c := run.tr.chain(clusterBase + i + 1)

		// One leg at a time; the fan-out waits for its slowest.
		var slowest time.Duration
		for k, tuple := range segs {
			// The query's closing brace makes room for the segment.
			leg := request{method: "POST", path: "/v1/query", body: append(body[:len(body)-1:len(body)-1], segJSON[k]...)}
			begin := time.Now()
			status, resp, err := send(client, r.shards[tuple[0]], leg)
			d := time.Since(begin)
			run.live.observe(begin, status, resp, err, false)
			run.sm.addDur("server.segment_query_us", d, time.Microsecond)
			slowest = max(slowest, d)
		}
		c.record(layerSegment, "slowest segment leg", "router.TopK", slowest)

		var res *router.TopKResult
		d := c.time(layerRouter, "router.TopK", "coordinator", func() map[string]float64 {
			res, err = rt.TopK(run.ctx, router.Query{Regions: regionsJSON(rq.query), K: topK})
			return map[string]float64{"legs": float64(len(segs))}
		})
		run.live.attempted++
		if err != nil || res.Partial {
			return fmt.Errorf("request %d: in-process router: partial or failed: %v", i, err)
		}
		run.sm.addDur("router.topk_us", d, time.Microsecond)
		run.sm.add("router.legs_per_query", float64(res.Queried))
		failedOver += res.FailedOver
		got := make([]resultJSON, len(res.Results))
		for j, x := range res.Results {
			got[j] = resultJSON{ID: x.ID, Similarity: x.Score}
		}
		if b, _ := json.Marshal(got); !bytes.Equal(b, want) {
			return fmt.Errorf("request %d: in-process router answer differs from LinearScan: %s", i, b)
		}

		var status int
		var resp []byte
		begin := time.Now()
		whole := c.time(layerCoord, "coordinator", "", func() map[string]float64 {
			status, resp, err = send(client, r.url, request{method: "POST", path: "/v1/topk", body: body})
			return nil
		})
		if raw := run.live.observe(begin, status, resp, err, true); raw != nil {
			if !bytes.Equal(raw, want) {
				return fmt.Errorf("request %d: georouter answer differs from LinearScan: %s", i, raw)
			}
			var env struct {
				FailedOver int `json:"failed_over"`
			}
			if json.Unmarshal(resp, &env) == nil {
				failedOver += env.FailedOver
			}
		}
		run.sm.addDur("router.coordinator_us", whole-d, time.Microsecond)
	}
	run.m["router.failed_over"] = metric{Value: float64(failedOver)}

	const lookups = 10000
	start := time.Now()
	for i := 0; i < lookups; i++ {
		ring.ReplicaIndices(run.corpus.db.IDs[i%run.corpus.db.Len()], clusterReplicas)
	}
	run.m["hashring.replica_lookup_ns"] = metric{Value: float64(time.Since(start)) / lookups}
	return nil
}

// liveIngest posts the seed's batches to a live ingest server, waits
// for the drain, and reads the counters the server reports; then
// times synchronous publishes through PUT /v1/users/{id}.
func (run *tracedRun) liveIngest() error {
	r, err := run.startRig(run.ctx, rigIngest)
	if err != nil {
		return err
	}
	defer r.stop()
	client := newClient(1)
	defer client.CloseIdleConnections()
	before, err := run.ingestStats(r.url)
	if err != nil {
		return err
	}
	cpu0, err := r.cpuSeconds()
	if err != nil {
		return err
	}
	wres, err := run.writeStream(run.ctx, client, r.url, run.in)
	if err != nil {
		return err
	}
	cpu1, err := r.cpuSeconds()
	if err != nil {
		return err
	}
	after, err := run.ingestStats(r.url)
	if err != nil {
		return err
	}
	run.live.attempted += len(run.in.batches)
	run.live.failed += wres.failed
	if run.live.firstErr == nil {
		run.live.firstErr = wres.firstErr
	}
	acks := sortedCopy(wres.acks)
	run.m["server.ingest_ack_p50_ms"] = metric{Value: ms(quantile(acks, 0.5))}
	run.m["server.ingest_ack_tail_ms"] = metric{Value: ms(quantile(acks, tailQuantile(len(acks))))}
	run.m["server.cpu_s"] = metric{Value: cpu1 - cpu0}
	run.m["store.epochs_published"] = metric{Value: float64(after.Epoch.Published - before.Epoch.Published)}
	run.m["store.epochs_reclaimed"] = metric{Value: float64(after.Epoch.Reclaimed - before.Epoch.Reclaimed)}
	run.m["ingest.batches"] = metric{Value: float64(after.Batches - before.Batches)}
	run.m["ingest.rejected_429"] = metric{Value: float64(after.Rejected - before.Rejected)}
	run.m["ingest.queue_len_max"] = metric{Value: float64(wres.queueMax)}
	run.m["ingest.snapshots"] = metric{Value: float64(after.Snapshots - before.Snapshots)}

	// PUT /v1/users/{id} with a bare region array is one synchronous
	// publish: the same footprints the sample queries with, under ids
	// no corpus user has.
	for i, rq := range run.sample[:min(len(run.sample), 20)] {
		put := request{method: "PUT", path: "/v1/users/" + strconv.Itoa(1<<30+i), body: regionsJSON(rq.query)}
		begin := time.Now()
		status, body, err := send(client, r.url, put)
		run.sm.addDur("server.put_user_ms", time.Since(begin), time.Millisecond)
		run.live.attempted++
		if err != nil || status != http.StatusOK {
			run.live.failed++
			if run.live.firstErr == nil {
				run.live.firstErr = fmt.Errorf("PUT %s: status %d: %.100s: %v", put.path, status, body, err)
			}
		}
	}
	return nil
}
