package main

// The per-layer metrics of the traced run, in the order of the layer
// table in README.md. BENCHMARK.json declares the same names and
// units; a test keeps the two in step.
var perLayer = []declaredMetric{
	// Candidate generation and exact scoring of the default method.
	{Name: "rtree.candidates_us", Unit: "us", Better: "lower"},
	{Name: "search.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "search.uc_topk_us", Unit: "us", Better: "lower"},
	{Name: "core.join_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "core.pairs_per_query", Unit: "count", Better: "lower"},
	// The sketch filter.
	{Name: "sketch.build_us", Unit: "us", Better: "lower"},
	{Name: "sketch.dot_ns_per_user", Unit: "ns", Better: "lower"},
	{Name: "sketch.refined_per_query", Unit: "count", Better: "lower"},
	{Name: "sketch.refine_ratio", Unit: "ratio", Better: "lower"},
	{Name: "search.sketch_topk_us", Unit: "us", Better: "lower"},
	// Methods no traffic uses.
	{Name: "search.linear_topk_us", Unit: "us", Better: "lower"},
	{Name: "search.iterative_topk_us", Unit: "us", Better: "lower"},
	{Name: "search.batch_topk_us", Unit: "us", Better: "lower"},
	// The parallel engine and the cross-shard merge.
	{Name: "engine.uc_topk_us", Unit: "us", Better: "lower"},
	{Name: "engine.sketch_topk_us", Unit: "us", Better: "lower"},
	{Name: "engine.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "engine.merge_us", Unit: "us", Better: "lower"},
	// The result cache.
	{Name: "cache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.miss_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.purge_us", Unit: "us", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	// Epoch pin, HTTP handler, loopback.
	{Name: "store.pin_ns", Unit: "ns", Better: "lower"},
	{Name: "server.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_query_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "http.loopback_us", Unit: "us", Better: "lower"},
	// The cluster.
	{Name: "server.segment_query_us", Unit: "us", Better: "lower"},
	{Name: "hashring.replica_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "router.legs_per_query", Unit: "count", Better: "lower"},
	{Name: "router.topk_us", Unit: "us", Better: "lower"},
	{Name: "router.coordinator_us", Unit: "us", Better: "lower"},
	{Name: "router.failed_over", Unit: "count", Better: "lower"},
	// Ingest up to the acknowledgement.
	{Name: "ingest.parse_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "wal.append_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "server.ingest_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ingest_ack_tail_ms", Unit: "ms", Better: "lower"},
	// Ingest from the acknowledgement to the published epoch.
	{Name: "extract.push_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "ingest.pipeline_samples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ingest.rois_per_ksample", Unit: "count", Better: "lower"},
	{Name: "store.append_freeze_us", Unit: "us", Better: "lower"},
	{Name: "search.str_build_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.newview_ms", Unit: "ms", Better: "lower"},
	{Name: "server.put_user_ms", Unit: "ms", Better: "lower"},
	{Name: "store.epochs_published", Unit: "count", Better: "lower"},
	{Name: "store.epochs_reclaimed", Unit: "count", Better: "higher"},
	{Name: "ingest.batches", Unit: "count", Better: "lower"},
	{Name: "ingest.rejected_429", Unit: "count", Better: "lower"},
	{Name: "ingest.queue_len_max", Unit: "count", Better: "lower"},
	{Name: "ingest.snapshots", Unit: "count", Better: "lower"},
	{Name: "server.cpu_s", Unit: "s", Better: "lower"},
	// Set-up and memory.
	{Name: "colstore.load_mmap_ms", Unit: "ms", Better: "lower"},
	{Name: "colstore.load_read_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_bytes_per_region", Unit: "B", Better: "lower"},
	{Name: "extract.footprints_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.norms_per_s", Unit: "1/s", Better: "higher"},
	// The cost of measuring.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

var layerUnits = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()
