package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"geofootprint/internal/core"
	"geofootprint/internal/geom"
	"geofootprint/internal/store"
)

// fixedStream sends the same GET over and over.
type fixedStream struct{}

func (fixedStream) at(int) request { return request{method: "GET", path: "/"} }

func stubTarget(t *testing.T, conns int, h http.HandlerFunc) target {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c := newClient(conns)
	t.Cleanup(c.CloseIdleConnections)
	return target{client: c, base: srv.URL, stream: fixedStream{}, conns: conns}
}

// A server that stalls once delays every request that falls due during
// the stall. The open loop must charge each of them from its due time;
// timing from the send would report one slow request and hide the rest.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	tg := stubTarget(t, 1, func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 5 {
			time.Sleep(stall)
		}
		io.WriteString(w, "[]\n")
	})
	var next atomic.Int64
	ph := openLoop(tg, &next, 100, time.Second, nil)
	if ph.failed != 0 || ph.attempted != 100 {
		t.Fatalf("attempted %d, failed %d (%v); want 100, 0", ph.attempted, ph.failed, ph.firstErr)
	}
	// 100 requests/s for 300 ms: about 30 requests fall due during the
	// stall and wait, on average, half of it.
	slow := 0
	for _, l := range ph.latencies {
		if l > stall/10 {
			slow++
		}
	}
	if slow < 20 {
		t.Errorf("%d requests slower than %v; the stall of %v at 100 requests/s should have delayed at least 20", slow, stall/10, stall)
	}
	if max := sortedCopy(ph.latencies)[len(ph.latencies)-1]; max < stall {
		t.Errorf("slowest request took %v, less than the stall of %v", max, stall)
	}
	if late := sortedCopy(ph.lateness); late[len(late)-1] < stall/2 {
		t.Errorf("largest generator lateness %v does not show the stall", late[len(late)-1])
	}
	if backlogGrowing(ph.backlog, 1, 100) {
		t.Errorf("backlog of %d at the end of a phase that had caught up", ph.backlog)
	}
}

// A server slower than the arrival rate ends the phase with a backlog.
func TestOpenLoopFlagsGrowingBacklog(t *testing.T) {
	tg := stubTarget(t, 1, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		io.WriteString(w, "[]\n")
	})
	var next atomic.Int64
	ph := openLoop(tg, &next, 200, 500*time.Millisecond, nil)
	if !backlogGrowing(ph.backlog, 1, 200) {
		t.Errorf("backlog %d not flagged: 200 requests/s against a 50/s server", ph.backlog)
	}
}

func TestOpenLoopStops(t *testing.T) {
	tg := stubTarget(t, 1, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "[]\n") })
	stop := make(chan struct{})
	time.AfterFunc(200*time.Millisecond, func() { close(stop) })
	var next atomic.Int64
	start := time.Now()
	ph := openLoop(tg, &next, 50, 0, stop)
	if el := time.Since(start); el > time.Second {
		t.Errorf("open loop ran %v after stop at 200ms", el)
	}
	if ph.attempted < 5 || ph.attempted > 15 {
		t.Errorf("%d requests in 200 ms at 50/s", ph.attempted)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {19, 0.5}, {20, 0.5}, {100, 0.90}, {300, 290.0 / 300}, {999, 989.0 / 999}, {1000, 0.99}, {50000, 0.99},
	} {
		got := tailQuantile(c.n)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The promise: at least ten samples beyond the reported one.
		if c.n >= 20 {
			rank := int(math.Ceil(got * float64(c.n)))
			if beyond := c.n - rank; beyond < 10 {
				t.Errorf("n=%d: percentile %v leaves %d samples beyond it", c.n, got, beyond)
			}
		}
	}
	d := make([]time.Duration, 100)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	if got := quantile(d, 0.5); got != 50 {
		t.Errorf("median of 1..100 = %d, want 50 (nearest rank)", got)
	}
	if got := quantile(d, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %d", got)
	}
}

// Wrong, refused and failed requests are counted, not dropped, and add
// no latency sample.
func TestFailuresAreCounted(t *testing.T) {
	var served atomic.Int64
	tg := stubTarget(t, 2, func(w http.ResponseWriter, r *http.Request) {
		switch served.Add(1) % 4 {
		case 0:
			http.Error(w, "shed", http.StatusTooManyRequests)
		case 1:
			io.WriteString(w, `[{"id":1,"similarity":0.2},{"id":2,"similarity":0.9}]`) // ascending
		case 2:
			io.WriteString(w, `[{"id":1,"similarity":1},{"id":2,"similarity":0.5}]`)
		default:
			io.WriteString(w, `[{},{},{},{},{},{}]`) // six results for k=5
		}
	})
	var next atomic.Int64
	ph := closedLoop(tg, &next, 200*time.Millisecond)
	if ph.attempted < 8 {
		t.Fatalf("only %d requests", ph.attempted)
	}
	wantFailed := ph.attempted * 3 / 4
	if d := ph.failed - wantFailed; d < -2 || d > 2 {
		t.Errorf("%d of %d failed, want about %d", ph.failed, ph.attempted, wantFailed)
	}
	if len(ph.latencies) != ph.correct() {
		t.Errorf("%d latency samples for %d correct answers", len(ph.latencies), ph.correct())
	}
	if ph.firstErr == nil {
		t.Error("no error kept for the report")
	}
	if _, err := checkAnswer(200, []byte(`{"results":[],"partial":true}`), true); err == nil {
		t.Error("a partial router answer passed the check")
	}
}

func testDB(t *testing.T, users int) *store.FootprintDB {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ids := make([]int, users)
	fps := make([]core.Footprint, users)
	for u := range ids {
		ids[u] = 10 + u
		for r := 0; r < 1+rng.Intn(4); r++ {
			x, y := rng.Float64(), rng.Float64()
			fps[u] = append(fps[u], core.Region{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.02}, Weight: 1})
		}
	}
	db, err := store.FromFootprints("test", ids, fps)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// The request streams are a function of the seed and the position and
// of nothing else; a different seed gives a different stream.
func TestStreamsArePureFunctionsOfSeed(t *testing.T) {
	db := testDB(t, 50)
	builders := map[string]func(seed int64) stream{
		"jitter": func(seed int64) stream { return newJitterStream(db, seed, "/v1/query") },
		"zipf":   func(seed int64) stream { return newZipfStream(db, seed) },
	}
	for name, build := range builders {
		a, b, other := build(3), build(3), build(4)
		differs := false
		for _, i := range []int{0, 1, 2, 17, 1000, 99999} {
			ra, rb := a.at(i), b.at(i)
			if !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s: request %d differs between two streams of one seed", name, i)
			}
			if rc := a.at(i); !reflect.DeepEqual(ra, rc) {
				t.Errorf("%s: request %d differs when drawn twice", name, i)
			}
			if ro := other.at(i); ro.path != ra.path || !bytes.Equal(ro.body, ra.body) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 3 and 4 give the same requests", name)
		}
	}
	// Jitter stays within its bound and every query is a translation of
	// a corpus footprint.
	js := newJitterStream(db, 1, "/v1/query")
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		rq := js.at(i)
		if seen[string(rq.body)] {
			t.Errorf("jitter request %d repeats an earlier one", i)
		}
		seen[string(rq.body)] = true
		if !core.IsSortedByMinX(rq.query) {
			t.Errorf("jitter request %d is not MinX-sorted", i)
		}
	}
	in1, err := newIngestStream(db, 5, 4000)
	if err != nil {
		t.Fatal(err)
	}
	in2, _ := newIngestStream(db, 5, 4000)
	if !reflect.DeepEqual(in1.batches, in2.batches) {
		t.Error("ingest stream differs between two builds of one seed")
	}
	known, fresh := 0, 0
	for _, b := range in1.batches {
		for j, s := range b {
			if j > 0 && s.T < b[j-1].T {
				t.Fatal("ingest stream is not time-ordered")
			}
			if _, ok := db.IndexOf(s.User); ok {
				known++
			} else {
				fresh++
			}
		}
	}
	if known == 0 || fresh == 0 {
		t.Errorf("ingest stream has %d samples of existing users and %d of new ones; want both", known, fresh)
	}
}

func TestSelfTimes(t *testing.T) {
	mk := func(id, parent int, layer string, d int64) span {
		return span{TraceID: 1, SpanID: id, ParentID: parent, Layer: layer, StartNs: 0, EndNs: d}
	}
	// http 100 ⊃ server 60 ⊃ {cache 10, engine 30 ⊃ core 50}. The
	// engine ran its kernel calls in parallel: core's 50 is scaled into
	// the engine's 30.
	got := selfTimes([]span{
		mk(1, 0, "http", 100), mk(2, 1, "server", 60), mk(3, 2, "cache", 10),
		mk(4, 2, "engine", 30), mk(5, 4, "core", 50),
	})
	want := map[string]time.Duration{"http": 40, "server": 20, "cache": 10, "engine": 0, "core": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the outermost span's 100", sum)
	}
	sh := shares(got)
	if math.Abs(sh["http"]-0.4) > 1e-12 || math.Abs(sh["core"]-0.3) > 1e-12 {
		t.Errorf("shares %v", sh)
	}
	// Spans recorded through a chain link up by name, whatever the order.
	tr := newTracer()
	tr.chain(7).time("core", "kernel", "engine", func() map[string]float64 { return nil })
	tr.chain(7).time("engine", "engine", "", func() map[string]float64 { return map[string]float64{"n": 1} })
	if len(tr.spans) != 2 || tr.spans[0].ParentID != tr.spans[1].SpanID || tr.spans[1].ParentID != 0 {
		t.Errorf("chain spans not linked: %+v", tr.spans)
	}
	var none *chain
	if d := none.time("x", "y", "", func() map[string]float64 { time.Sleep(time.Millisecond); return nil }); d < time.Millisecond {
		t.Errorf("nil chain timed %v", d)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4),
// which is what accepts or rejects the ledger.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if w := worse("higher", 100, 80); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("a throughput falling from 100 to 80 is worse by %v", w)
	}
	if w := worse("lower", 10, 12); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("a latency rising from 10 to 12 is worse by %v", w)
	}
}

// A rig that cannot start is an error and leaves nothing behind; the
// ports of one rig are distinct.
func TestStartRigFailure(t *testing.T) {
	addrs, err := freeAddrs(8)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, a := range addrs {
		if seen[a] {
			t.Errorf("address %s reserved twice", a)
		}
		seen[a] = true
	}
	e := &env{
		bin: t.TempDir(), work: t.TempDir(), rigs: make(map[*rig]bool), admin: http.DefaultClient,
		corpus: &corpus{path: "none.db", shards: make([]string, clusterShards)},
	}
	for _, kind := range []rigKind{rigSingle, rigCluster} {
		if _, err := e.startRig(context.Background(), kind); err == nil {
			t.Errorf("rig %d started without server binaries", kind)
		}
	}
	if len(e.rigs) != 0 {
		t.Errorf("%d rigs still registered after failed starts", len(e.rigs))
	}
}

var endToEnd = []string{"setup_s", "throughput_per_s", "cpu_ms_per_op", "rss_peak_mb"}

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units.
func TestDeclarationMatchesProgram(t *testing.T) {
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Error("per_layer of BENCHMARK.json differs from catalog.go")
	}
	var names []string
	for _, m := range decl.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(names, endToEnd) {
		t.Errorf("end_to_end of BENCHMARK.json is %v, the program reports %v", names, endToEnd)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, decl.Workloads[i].Name, w.name)
		}
	}
}

// The smoke pass: the real binaries, a 300-user corpus, one-second
// phases, every workload untraced and one traced run. Every declared
// metric must come out, nothing may fail, and the answers must verify.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the servers")
	}
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	logw = io.Discard
	e, cleanup, err := newEnv("..", t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	e.notes = true // so that the open phase runs too
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	check := func(rep *runReport, declared []declaredMetric) {
		t.Helper()
		if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", rep.Workload, rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed)
		}
		if len(rep.Result.Metrics) != len(declared) {
			t.Errorf("%s: %d metrics reported, %d declared", rep.Workload, len(rep.Result.Metrics), len(declared))
		}
		for _, d := range declared {
			m, ok := rep.Result.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: metric %s missing", rep.Workload, d.Name)
			} else if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %v %q, declared unit %q", rep.Workload, d.Name, m.Value, m.Unit, d.Unit)
			}
		}
	}
	for _, w := range workloads {
		rep, _, err := e.runOne(ctx, w, 1, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		check(rep, decl.EndToEnd)
		for _, name := range endToEnd {
			if rep.Result.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want positive", w.name, name, rep.Result.Metrics[name].Value)
			}
		}
	}
	rep, spans, err := e.runOne(ctx, workloads[2], 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	check(rep, decl.PerLayer)
	if len(spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	sh := rep.Shares["request"]
	var total float64
	for _, s := range sh {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("self-time shares sum to %v: %v", total, sh)
	}
	if sh[layerSegment]+sh[layerRouter]+sh[layerCoord] < 0.99 {
		t.Errorf("cluster_r2 shares name layers off its path: %v", sh)
	}
}
