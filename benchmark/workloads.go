package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// workload is one traffic mix on one topology. The rates and volumes
// are frozen here: a change to them is a change of the benchmark, not
// of the program.
type workload struct {
	name string
	rig  rigKind
	// openRate is the arrival rate of the open phase in requests/s, and
	// openSeconds its length: enough requests for a p99 with ten samples
	// beyond it. On ingest_mixed the reader's open loop lasts as long as
	// the ingest does.
	openRate    float64
	openSeconds float64
	// p99LimitMs is the latency limit on the open phase's tail: slo_met
	// in the report says whether the run kept it.
	p99LimitMs float64
	// verify is how many sampled requests are compared byte for byte
	// to the LinearScan oracle before anything is timed.
	verify int
	// zipf selects the skewed GET stream; otherwise the reads are
	// all-distinct ad-hoc queries.
	zipf bool
	// paths are the request paths whose self-time shares a traced run
	// reports for this workload: the one its requests take at the median
	// first, then, where the tail takes another, that one.
	paths []tracePath
}

// tracePath names the traces of one way through the system by the base
// of their ids.
type tracePath struct {
	name string
	base int
}

// stream builds the workload's read traffic for a seed. Ad-hoc queries
// go to georouter's /v1/topk or, with the same body, to a single
// server's /v1/query.
func (w workload) stream(db *store.FootprintDB, seed int64, viaRouter bool) stream {
	switch {
	case w.zipf:
		return newZipfStream(db, seed)
	case viaRouter:
		return newJitterStream(db, seed, "/v1/topk")
	default:
		return newJitterStream(db, seed, "/v1/query")
	}
}

// ingestSamplesPerSecond sizes the fixed write volume of ingest_mixed:
// this many samples per second of -seconds, sent as fast as acked. At
// the seed commit the server applies about this rate, so the phase
// lasts about -seconds there; the volume, not the duration, is fixed.
const ingestSamplesPerSecond = 40000

var workloads = []workload{
	{name: "topk_miss", rig: rigSingle, openRate: 300, openSeconds: 25, p99LimitMs: 25, verify: 200,
		paths: []tracePath{{"request", missTraceBase}}},
	{name: "topk_hot", rig: rigSingle, openRate: 2000, openSeconds: 25, p99LimitMs: 10, verify: 200, zipf: true,
		paths: []tracePath{{"hit", hitTraceBase}, {"miss", missTraceBase}}},
	{name: "cluster_r2", rig: rigCluster, openRate: 30, openSeconds: 40, p99LimitMs: 150, verify: 100,
		paths: []tracePath{{"request", clusterBase}}},
	{name: "ingest_mixed", rig: rigIngest, openRate: 100, p99LimitMs: 50, verify: 200, zipf: true,
		paths: []tracePath{{"batch", applyBase}, {"read", missTraceBase}}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmShare is the length of the untimed warm-up as a share of -seconds;
// the closed phase (on ingest_mixed, the ingest of the fixed volume) is
// what -seconds measures.
const warmShare = 0.1

// setUps is how often set-up is repeated for the setup_s median.
const setUps = 9

// env is what every run shares: where things are and the corpus.
type env struct {
	bin    string // built server binaries
	work   string // scratch directory of this process, removed at exit
	corpus *corpus
	smoke  bool
	// notes says whether the run's notes are reported (-out, or the
	// whole ledger). The open phase yields notes only, so a run whose
	// notes nobody reads leaves it out and spends its time on the
	// phase the gated numbers come from.
	notes  bool
	admin  *http.Client // health probes and stats, off the measured connections
	oracle *search.LinearScan

	mu   sync.Mutex
	rigs map[*rig]bool // running servers, for abort
}

// runReport is everything one run observed: the driver's result line
// plus the diagnostics that go to report.json.
type runReport struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	Result   result             `json:"result"`
	Notes    map[string]float64 `json:"notes,omitempty"`
	// Shares holds, per path of the workload, each layer's share of the
	// path's live latency.
	Shares map[string]map[string]float64 `json:"self_time_shares,omitempty"`
	// PathUs is the median live latency of each path's traced requests:
	// the base of its shares.
	PathUs map[string]float64 `json:"path_median_us,omitempty"`
}

func (r *runReport) note(name string, v float64) {
	if r.Notes == nil {
		r.Notes = make(map[string]float64)
	}
	r.Notes[name] = v
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// answerJSON is the JSON list a server must answer query q with: what
// LinearScan finds, encoded as the servers encode it.
func answerJSON(oracle *search.LinearScan, q core.Footprint) []byte {
	res := oracle.TopK(q, topK)
	list := make([]resultJSON, len(res))
	for i, r := range res {
		list[i] = resultJSON{ID: r.ID, Similarity: r.Score}
	}
	b, _ := json.Marshal(list) // a slice of ints and finite floats cannot fail
	return b
}

// verifyAnswers sends n requests of the stream (positions from, from+1,
// ...) one at a time and requires each answer to equal, byte for byte,
// the JSON of LinearScan.TopK over the corpus.
func (e *env) verifyAnswers(t target, from, n int) error {
	for i := from; i < from+n; i++ {
		rq := t.stream.at(i)
		if err := verifyAnswer(t, rq, answerJSON(e.oracle, rq.query)); err != nil {
			return fmt.Errorf("verify request %d: %w", i, err)
		}
	}
	return nil
}

// verifyAnswer sends rq and requires the ranked list that comes back to
// be want, byte for byte.
func verifyAnswer(t target, rq request, want []byte) error {
	status, body, err := send(t.client, t.base, rq)
	if err != nil {
		return err
	}
	raw, err := checkAnswer(status, body, t.viaRouter)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, want) {
		return fmt.Errorf("%s %s: answer differs from LinearScan\n got %s\nwant %s", rq.method, rq.path, raw, want)
	}
	return nil
}

// setUpProbe is the request a set-up is timed up to, with the answer it
// must get. It is the workload's first request under seed 0 whatever the
// run's seed, and the answer is worked out before any clock starts, so
// that the time is the servers' and not the query's.
func (e *env) setUpProbe(w workload, viaRouter bool) (request, []byte) {
	probe := w.stream(e.corpus.db, 0, viaRouter).at(0)
	return probe, answerJSON(e.oracle, probe.query)
}

// setUp starts the workload's servers and returns them with the time
// from the spawn of the first to the probe's verified answer.
func (e *env) setUp(ctx context.Context, w workload, t *target, probe request, want []byte) (*rig, float64, error) {
	r, err := e.startRig(ctx, w.rig)
	if err != nil {
		return nil, 0, err
	}
	t.base = r.url
	if err := verifyAnswer(*t, probe, want); err != nil {
		r.stop()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	return r, time.Since(r.spawned).Seconds(), nil
}

// moreSetUps repeats set-up until there are setUps times, stopping each
// set of servers at once, and returns the median. It runs after the
// timed phases: after an idle spell, or a phase that left the CPUs half
// idle, this host runs processes started in parallel at about half
// speed for the first seconds (the four shards of cluster_r2 came up in
// 0.10 to 0.11 s for eight set-ups in a row instead of 0.055 s), and a
// closed phase has just kept both CPUs busy. Where the last phase was
// another (idle says so: the drain and probes of ingest_mixed, an open
// phase), heat does it.
func (e *env) moreSetUps(ctx context.Context, w workload, t target, idle bool, probe request, want []byte, times []float64) (float64, error) {
	if idle && !e.smoke {
		heat(2 * time.Second)
	}
	for len(times) < setUps {
		t.client.CloseIdleConnections()
		r, s, err := e.setUp(ctx, w, &t, probe, want)
		if err != nil {
			return 0, err
		}
		r.stop()
		times = append(times, s)
	}
	fmt.Fprintf(logw, "%s: set-up times %.4f s\n", w.name, times)
	return median(times), nil
}

// heat keeps every CPU busy for d.
func heat(d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
			}
		}()
	}
	wg.Wait()
}

// runUntraced is one measured run of a workload: the first set-up,
// verification, warm-up, the timed phases with tracing off, then the
// other set-ups.
func (e *env) runUntraced(ctx context.Context, w workload, seed int64, secs float64) (*runReport, error) {
	rep := &runReport{Workload: w.name, Seed: seed, Seconds: secs}
	t := target{
		client:    newClient(2),
		viaRouter: w.rig == rigCluster,
		stream:    w.stream(e.corpus.db, seed, w.rig == rigCluster),
		conns:     2,
	}
	defer t.client.CloseIdleConnections()
	probe, want := e.setUpProbe(w, t.viaRouter)
	r, firstSetUp, err := e.setUp(ctx, w, &t, probe, want)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.stop() // harmless when the servers have been stopped already
	verify := w.verify
	if e.smoke {
		verify = 20
	}
	if err := e.verifyAnswers(t, 0, verify); err != nil {
		return nil, err
	}
	// Stream positions continue after the verified prefix, so on the
	// all-distinct streams no timed request was seen before.
	var next atomic.Int64
	next.Store(int64(verify))

	m := make(map[string]metric)
	var phases []*phaseStats
	if w.rig == rigIngest {
		ph, err := e.ingestPhases(ctx, w, r, t, &next, seed, secs, rep, m)
		if err != nil {
			return nil, err
		}
		phases = ph
	} else {
		closedLoop(t, &next, seconds(warmShare*secs))
		warm := e.cacheCounters(r)
		closed, err := closedSlices(t, &next, seconds(secs), r, rep, m)
		if err != nil {
			return nil, err
		}
		phases = []*phaseStats{closed}
		if e.notes {
			length := seconds(w.openSeconds)
			if e.smoke {
				length = seconds(secs)
			}
			open := openLoop(t, &next, w.openRate, length, nil)
			noteOpenPhase(w, open, 2, rep)
			phases = append(phases, open)
		}
		noteHitRatio(rep, warm, e.cacheCounters(r))
	}
	rss, err := r.rssPeakMiB()
	if err != nil {
		return nil, err
	}
	m["rss_peak_mb"] = metric{rss, "MiB"}
	if w.rig == rigIngest {
		if err := e.checkSnapshot(r, t, int(next.Load())); err != nil {
			return nil, err
		}
	}
	r.stop()
	setupS, err := e.moreSetUps(ctx, w, t, w.rig == rigIngest || e.notes, probe, want, []float64{firstSetUp})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m["setup_s"] = metric{setupS, "s"}

	rep.Result = result{Correct: true, Metrics: m}
	for _, p := range phases {
		rep.Result.Attempted += p.attempted
		rep.Result.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(logw, "%s: first failed request: %v\n", w.name, p.firstErr)
		}
	}
	return rep, nil
}

// closedSlices runs the closed phase as back-to-back slices of about a
// second and sets throughput_per_s and cpu_ms_per_op from the best of
// them: the highest rate of correct answers, the lowest server CPU per
// correct answer.
//
// This host slows down, by a fifth and more, for seconds to minutes at
// a time. Every slice does the same work in distribution, and the noise
// only ever slows one down, so the best slice is the estimate least
// moved by it, the more so the more slices there are to choose from:
// over twelve runs of topk_hot in a noisy hour the best of 18 slices
// spread by 0.089 and the best of the first 10 by 0.106, the median
// slice by 0.140 and the mean by 0.136; the lowest CPU per answer by
// 0.048, 0.081, 0.131 and 0.108. A slow spell longer than the phase no
// choice of slice undoes. The price: a stall that recurs, but not in
// every second, does not show here; it shows in the notes, which are
// whole-phase.
func closedSlices(t target, next *atomic.Int64, d time.Duration, r *rig, rep *runReport, m map[string]metric) (*phaseStats, error) {
	total := &phaseStats{}
	var cpu float64
	best := struct{ rate, cpu float64 }{0, math.Inf(1)}
	n := sliceCount(d)
	rates := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cpu0, err := r.cpuSeconds()
		if err != nil {
			return nil, err
		}
		ph := closedLoop(t, next, d/time.Duration(n))
		cpu1, err := r.cpuSeconds()
		if err != nil {
			return nil, err
		}
		total.merge(ph)
		total.elapsed += ph.elapsed
		cpu += cpu1 - cpu0
		rates = append(rates, float64(ph.correct())/ph.elapsed.Seconds())
		if ph.correct() > 0 {
			best.rate = max(best.rate, rates[i])
			best.cpu = min(best.cpu, (cpu1-cpu0)*1000/float64(ph.correct()))
		}
	}
	if total.correct() == 0 {
		return nil, fmt.Errorf("closed phase: no correct answer (first error: %v)", total.firstErr)
	}
	fmt.Fprintf(logw, "closed slices %.0f 1/s\n", rates)
	m["throughput_per_s"] = metric{best.rate, "1/s"}
	m["cpu_ms_per_op"] = metric{best.cpu, "ms"}
	rep.note("closed_whole_phase_per_s", float64(total.correct())/total.elapsed.Seconds())
	rep.note("closed_whole_phase_cpu_ms_per_op", cpu*1000/float64(total.correct()))
	rep.note("closed_p50_ms", ms(quantile(sortedCopy(total.latencies), 0.5)))
	return total, nil
}

// noteOpenPhase records what an open phase observed. Latency at a
// fixed arrival rate is reported, not gated: over ten runs of one
// commit the median moved by 0.04 to 0.36 of itself depending on the
// hour, and the tail by 0.2 to 1.5.
func noteOpenPhase(w workload, open *phaseStats, conns int, rep *runReport) {
	lat := sortedCopy(open.latencies)
	q := tailQuantile(len(lat))
	rep.note("query_p50_ms", ms(quantile(lat, 0.5)))
	rep.note("query_p90_ms", ms(quantile(lat, 0.90)))
	rep.note("query_p99_ms", ms(quantile(lat, q)))
	rep.note("query_p99_percentile", 100*q)
	rep.note("open_samples", float64(len(lat)))
	late := sortedCopy(open.lateness)
	rep.note("open_lateness_p50_ms", ms(quantile(late, 0.5)))
	rep.note("open_lateness_p99_ms", ms(quantile(late, 0.99)))
	growing := backlogGrowing(open.backlog, conns, w.openRate)
	rep.note("backlog_growing", b2f(growing))
	rep.note("slo_met", b2f(!growing && open.failed == 0 && ms(quantile(lat, q)) <= w.p99LimitMs))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// healthReport is the slice of a shard's /healthz and /v1/ingest/stats
// the ledger reads.
type healthReport struct {
	Users   int `json:"users"`
	Regions int `json:"regions"`
	Cache   struct {
		Hits, Misses, Evictions uint64
	} `json:"cache"`
	Epoch struct {
		Published, Reclaimed uint64
	} `json:"epoch"`
}

// cacheCounters reads the result cache's hit and miss counts of a
// single-server rig; the cluster's segment reads bypass the cache.
func (e *env) cacheCounters(r *rig) [2]uint64 {
	if len(r.shards) > 0 {
		return [2]uint64{}
	}
	h, err := e.health(r.url)
	if err != nil {
		return [2]uint64{}
	}
	return [2]uint64{h.Cache.Hits, h.Cache.Misses}
}

// noteHitRatio records the hit ratio of the timed phases: the counters
// after them against the counters after warm-up.
func noteHitRatio(rep *runReport, warm, end [2]uint64) {
	hits, misses := float64(end[0]-warm[0]), float64(end[1]-warm[1])
	if hits+misses > 0 {
		rep.note("cache_hit_ratio", hits/(hits+misses))
	}
}

func (e *env) health(base string) (healthReport, error) {
	var h healthReport
	err := getJSON(e.admin, base+"/healthz", &h)
	return h, err
}

// ingestStats is the body of GET /v1/ingest/stats.
type ingestStats struct {
	Samples, Batches, Rejected, Appended, Applied, Snapshots uint64
	QueueLen                                                 int `json:"queue_len"`
	Epoch                                                    struct {
		Published, Reclaimed uint64
	}
}

func (e *env) ingestStats(base string) (ingestStats, error) {
	var s ingestStats
	err := getJSON(e.admin, base+"/v1/ingest/stats", &s)
	return s, err
}

// writeResult is what the writer of ingest_mixed observed.
type writeResult struct {
	acks     []time.Duration // POST → 202
	rejected int             // 429 answers, each followed by a 10 ms back-off and a resend
	failed   int
	firstErr error
	elapsed  time.Duration // first send → applied == appended
	queueMax int
}

// writeStream posts every batch in order on one connection, as fast as
// the server acks, and returns once the server has applied them all.
func (e *env) writeStream(ctx context.Context, c *client, base string, s *ingestStream) (*writeResult, error) {
	res := &writeResult{}
	start := time.Now()
	for _, batch := range s.batches {
		rq := request{method: "POST", path: "/v1/ingest", body: ndjson(batch)}
		for {
			begin := time.Now()
			status, body, err := send(c, base, rq)
			if err == nil && status == http.StatusTooManyRequests {
				res.rejected++
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(10 * time.Millisecond):
				}
				continue
			}
			if err == nil && status != http.StatusAccepted {
				err = fmt.Errorf("POST /v1/ingest: status %d: %.200s", status, body)
			}
			if err != nil {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = err
				}
			} else {
				res.acks = append(res.acks, time.Since(begin))
			}
			break
		}
	}
	for {
		st, err := e.ingestStats(base)
		if err != nil {
			return nil, err
		}
		res.queueMax = max(res.queueMax, st.QueueLen)
		if st.Applied == st.Appended {
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// ingestPhases is the timed part of ingest_mixed: a writer pushing the
// fixed volume on one connection while a reader runs the topk_hot
// stream at a fixed arrival rate on another, until the server has
// applied every acknowledged batch.
func (e *env) ingestPhases(ctx context.Context, w workload, r *rig, t target, next *atomic.Int64,
	seed int64, secs float64, rep *runReport, m map[string]metric) ([]*phaseStats, error) {
	volume := int(ingestSamplesPerSecond * secs)
	in, err := newIngestStream(e.corpus.db, seed, volume)
	if err != nil {
		return nil, err
	}
	// One connection each: the reader's client is the target's, cut to
	// one connection; the writer gets its own.
	t.conns = 1
	t.client = newClient(1)
	defer t.client.CloseIdleConnections()
	writer := newClient(1)
	defer writer.CloseIdleConnections()

	closedLoop(t, next, seconds(warmShare*secs))
	warm := e.cacheCounters(r)

	// The reader's open loop runs until the writer reports the drain; a
	// sampler reads the applied LSN and the server's CPU time once per
	// slice for the sliced medians.
	var wg sync.WaitGroup
	var wres *writeResult
	var werr error
	drained := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(drained)
		wres, werr = e.writeStream(ctx, writer, r.url, in)
	}()
	type progress struct {
		at      time.Time
		applied uint64
		cpu     float64
	}
	var series []progress
	var serr error
	sampleProgress := func() {
		st, err1 := e.ingestStats(r.url)
		cpu, err2 := r.cpuSeconds()
		if err := errors.Join(err1, err2); err != nil && serr == nil {
			serr = err
		}
		series = append(series, progress{time.Now(), st.Applied, cpu})
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sliceLength)
		defer tick.Stop()
		for sampleProgress(); ; sampleProgress() {
			select {
			case <-drained:
				sampleProgress()
				return
			case <-tick.C:
			}
		}
	}()
	reads := openLoop(t, next, w.openRate, 0, drained)
	wg.Wait()
	if werr != nil {
		return nil, fmt.Errorf("ingest writer: %w", werr)
	}
	if serr != nil {
		return nil, serr
	}
	if len(wres.acks) == 0 {
		return nil, fmt.Errorf("ingest writer: no batch acknowledged (first error: %v)", wres.firstErr)
	}
	// The applied LSN counts batches. Slices in which nothing was
	// applied (the writer had not started, or had finished) say nothing
	// about the rate. Batches differ in work — one in which no dwell
	// ends publishes nothing and applies in microseconds, and the first
	// second of every run is its fastest — so the best slice is not a
	// typical one, as it is in closedSlices. The metrics are the upper
	// quartile of the slices' rates and the lower quartile of their CPU
	// per sample: typical of the quarter of the run the host disturbed
	// least (two rounds of ten runs: the quartiles spread by 0.043 and
	// 0.039, then 0.057 and 0.054; the medians by 0.046 and 0.085, then
	// 0.049 and 0.068).
	var rates, cpus []float64
	for i := 1; i < len(series); i++ {
		a, b := series[i-1], series[i]
		if samples := float64(b.applied-a.applied) * ingestBatchSamples; samples > 0 {
			rates = append(rates, samples/b.at.Sub(a.at).Seconds())
			cpus = append(cpus, (b.cpu-a.cpu)*1000/(samples/1000))
		}
	}
	if len(rates) == 0 {
		return nil, errors.New("ingest phase: the applied LSN never advanced between two samples")
	}
	fmt.Fprintf(logw, "ingest slices %.0f 1/s, %.1f ms\n", rates, cpus)
	sort.Float64s(rates)
	sort.Float64s(cpus)
	m["throughput_per_s"] = metric{rates[(3*len(rates))/4], "1/s"}
	m["cpu_ms_per_op"] = metric{cpus[len(cpus)/4], "ms"}
	rep.note("ingest_whole_phase_samples_per_s", float64(in.samples)/wres.elapsed.Seconds())
	noteOpenPhase(w, reads, 1, rep)
	noteHitRatio(rep, warm, e.cacheCounters(r))
	acks := sortedCopy(wres.acks)
	rep.note("ingest_ack_p50_ms", ms(quantile(acks, 0.5)))
	rep.note("ingest_ack_tail_ms", ms(quantile(acks, tailQuantile(len(acks)))))
	rep.note("ingest_rejected_429", float64(wres.rejected))
	rep.note("ingest_queue_len_max", float64(wres.queueMax))
	rep.note("ingest_phase_s", wres.elapsed.Seconds())
	writes := &phaseStats{attempted: len(in.batches), failed: wres.failed, firstErr: wres.firstErr}
	return []*phaseStats{reads, writes}, nil
}

// checkSnapshot is the post-drain gate of ingest_mixed: 100 probe
// answers and the /healthz counts are taken from the live server, the
// server is stopped with SIGTERM (which checkpoints), and both are
// compared with LinearScan over, and the size of, the snapshot it left.
func (e *env) checkSnapshot(r *rig, t target, from int) error {
	const probes = 100
	type probe struct {
		rq  request
		raw []byte
	}
	var got []probe
	for i := from; i < from+probes; i++ {
		rq := t.stream.at(i)
		status, body, err := send(t.client, t.base, rq)
		var raw []byte
		if err == nil {
			raw, err = checkAnswer(status, body, false)
		}
		if err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		got = append(got, probe{rq, raw})
	}
	live, err := e.health(r.url)
	r.stop()
	if err != nil {
		return err
	}
	snap, err := store.Load(r.snap)
	if err != nil {
		return fmt.Errorf("loading the SIGTERM checkpoint: %w", err)
	}
	if snap.Len() != live.Users || snap.NumRegions() != live.Regions {
		return fmt.Errorf("checkpoint holds %d users / %d regions, /healthz reported %d / %d",
			snap.Len(), snap.NumRegions(), live.Users, live.Regions)
	}
	after := search.NewLinearScan(snap)
	for i, p := range got {
		// The server answered with the footprint the user has now, not
		// the one in the corpus the benchmark started from.
		u, ok := snap.IndexOf(e.corpus.db.IDs[p.rq.user])
		if !ok {
			return fmt.Errorf("probe %d: user vanished from the checkpoint", i)
		}
		if want := answerJSON(after, snap.Footprints[u]); !bytes.Equal(p.raw, want) {
			return fmt.Errorf("probe %d (%s): answer differs from LinearScan over the checkpoint\n got %s\nwant %s",
				i, p.rq.path, p.raw, want)
		}
	}
	return nil
}
