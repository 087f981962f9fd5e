package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geofootprint/internal/hashring"
	"geofootprint/internal/ingest"
)

// fakeShard is an httptest-backed shard with a programmable handler.
type fakeShard struct {
	id  string
	srv *httptest.Server
}

// newFakeShards starts n fake shards, each answering /healthz as a
// healthy instance of its map ID and /v1/query with the given
// handler (nil: empty result list).
func newFakeShards(t testing.TB, n int, query http.HandlerFunc) ([]*fakeShard, *hashring.Map) {
	t.Helper()
	m := &hashring.Map{Version: hashring.MapVersion}
	var shards []*fakeShard
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("shard-%d", i)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]interface{}{
				"status": "ok", "shard_id": id, "epoch_seq": 1, "users": 10,
			})
		})
		if query != nil {
			mux.HandleFunc("POST /v1/query", query)
		} else {
			mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "[]")
			})
		}
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		shards = append(shards, &fakeShard{id: id, srv: srv})
		m.Shards = append(m.Shards, hashring.Shard{ID: id, Addr: srv.URL})
	}
	return shards, m
}

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func newTestRouter(t testing.TB, m *hashring.Map, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Map:            m,
		HealthInterval: -1, // tests drive CheckHealth explicitly
		RequestTimeout: 2 * time.Second,
		RetryBase:      time.Millisecond,
		RetryCap:       5 * time.Millisecond,
		Logger:         quietLogger(),
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func testQuery(k int) Query {
	return Query{
		Regions: json.RawMessage(`[{"rect":[0.1,0.1,0.5,0.5],"weight":1}]`),
		K:       k,
	}
}

// Health probing classifies every state the router routes on, and the
// duplicate-ID cross-check catches a shard map pointing two entries
// at processes claiming the same identity.
func TestCheckHealthStates(t *testing.T) {
	status := map[string]string{} // shard id -> reported status
	reportAs := map[string]string{}
	mkHandler := func(id string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			rid := id
			if alias, ok := reportAs[id]; ok {
				rid = alias
			}
			json.NewEncoder(w).Encode(map[string]interface{}{
				"status": status[id], "shard_id": rid, "epoch_seq": 42,
			})
		}
	}
	m := &hashring.Map{Version: hashring.MapVersion}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("shard-%d", i)
		status[id] = "ok"
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", mkHandler(id))
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		m.Shards = append(m.Shards, hashring.Shard{ID: id, Addr: srv.URL})
	}
	r := newTestRouter(t, m, nil)

	r.CheckHealth(context.Background())
	for _, h := range r.Shards() {
		if h.State != StateOK || h.Epoch != 42 {
			t.Fatalf("healthy shard %s: %+v", h.ID, h)
		}
	}

	status["shard-1"] = "degraded"
	status["shard-2"] = "draining"
	reportAs["shard-3"] = "shard-0" // misrouted: claims shard-0's identity
	r.CheckHealth(context.Background())
	got := map[string]string{}
	for _, h := range r.Shards() {
		got[h.ID] = h.State
	}
	// shard-0 and shard-3 both answered as "shard-0": both untrusted.
	want := map[string]string{
		"shard-0": StateMisconfigured,
		"shard-1": StateDegraded,
		"shard-2": StateDraining,
		"shard-3": StateMisconfigured,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("shard %s state = %s, want %s (all: %v)", id, got[id], w, got)
		}
	}
}

// An unreachable shard is detected and the query plane degrades to an
// explicit partial answer; when no shard can answer, TopK errors
// instead of returning an empty "success".
func TestTopKPartialOnUnreachable(t *testing.T) {
	shards, m := newFakeShards(t, 3, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `[{"id":7,"similarity":0.5}]`)
	})
	r := newTestRouter(t, m, nil)
	r.CheckHealth(context.Background())

	res, err := r.TopK(context.Background(), testQuery(5))
	if err != nil || res.Partial || res.Queried != 3 {
		t.Fatalf("healthy fan-out: res=%+v err=%v", res, err)
	}

	shards[1].srv.Close()
	r.CheckHealth(context.Background())
	res, err = r.TopK(context.Background(), testQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || len(res.Missing) != 1 || res.Missing[0] != "shard-1" || res.Queried != 2 {
		t.Fatalf("one shard down: %+v", res)
	}

	shards[0].srv.Close()
	shards[2].srv.Close()
	r.CheckHealth(context.Background())
	if _, err := r.TopK(context.Background(), testQuery(5)); err == nil {
		t.Fatal("all shards down: want error, got success")
	}
}

// Shard-level retries: 429 + Retry-After twice, then success — the
// fan-out leg succeeds without surfacing a partial result. A 400
// (non-retryable) fails the leg immediately, without burning retries.
func TestCallRetriesSheddingShard(t *testing.T) {
	var hits int32
	_, m := newFakeShards(t, 1, func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&hits, 1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		io.WriteString(w, `[{"id":3,"similarity":0.25}]`)
	})
	r := newTestRouter(t, m, nil)
	r.CheckHealth(context.Background())
	res, err := r.TopK(context.Background(), testQuery(1))
	if err != nil || res.Partial {
		t.Fatalf("retryable shed not retried: res=%+v err=%v hits=%d", res, err, hits)
	}
	if got := atomic.LoadInt32(&hits); got != 3 {
		t.Fatalf("hits = %d, want 3 (two sheds + success)", got)
	}

	var badHits int32
	_, m2 := newFakeShards(t, 1, func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&badHits, 1)
		http.Error(w, "bad footprint", http.StatusBadRequest)
	})
	r2 := newTestRouter(t, m2, nil)
	r2.CheckHealth(context.Background())
	if _, err := r2.TopK(context.Background(), testQuery(1)); err == nil {
		t.Fatal("400 from the only shard: want error")
	}
	if got := atomic.LoadInt32(&badHits); got != 1 {
		t.Fatalf("non-retryable status was retried %d times", got)
	}
}

// One slow shard cannot stall the fan-out past the query deadline:
// the slow leg is reported missing, the fast legs' merge returns.
func TestTopKSlowShardBoundedByDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	slow := func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
		io.WriteString(w, "[]")
	}
	fast := func(id int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, `[{"id":%d,"similarity":0.75}]`, id)
		}
	}
	m := &hashring.Map{Version: hashring.MapVersion}
	for i, h := range []http.HandlerFunc{fast(1), slow, fast(2)} {
		id := fmt.Sprintf("shard-%d", i)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]string{"status": "ok", "shard_id": id})
		})
		mux.HandleFunc("POST /v1/query", h)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		m.Shards = append(m.Shards, hashring.Shard{ID: id, Addr: srv.URL})
	}
	r := newTestRouter(t, m, func(c *Config) {
		c.MaxAttempts = 1
		c.RequestTimeout = 10 * time.Second // per-attempt cap is not the bound here
	})
	r.CheckHealth(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := r.TopK(ctx, testQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fan-out took %v, stalled by the slow shard", elapsed)
	}
	if !res.Partial || len(res.Missing) != 1 || res.Missing[0] != "shard-1" {
		t.Fatalf("slow shard not reported missing: %+v", res)
	}
	if len(res.Results) != 2 || res.Results[0].ID != 1 || res.Results[1].ID != 2 {
		t.Fatalf("fast legs lost: %+v", res.Results)
	}
}

// The per-shard admission gate bounds concurrent in-flight requests:
// with a gate of 1 and a handler that parks, a second fan-out leg
// cannot pile onto the shard — it waits, then times out as missing.
func TestAdmissionGateBoundsInflight(t *testing.T) {
	var inflight, peak int32
	block := make(chan struct{})
	defer close(block)
	_, m := newFakeShards(t, 1, func(w http.ResponseWriter, r *http.Request) {
		cur := atomic.AddInt32(&inflight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		defer atomic.AddInt32(&inflight, -1)
		select {
		case <-block:
		case <-r.Context().Done():
		}
		io.WriteString(w, "[]")
	})
	r := newTestRouter(t, m, func(c *Config) {
		c.MaxAttempts = 1
		c.MaxInflightPerShard = 1
		c.RequestTimeout = 10 * time.Second
	})
	r.CheckHealth(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			r.TopK(ctx, testQuery(1))
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	if p := atomic.LoadInt32(&peak); p != 1 {
		t.Fatalf("peak in-flight on the shard = %d, want 1 (gate leaked)", p)
	}
}

// Ingest routing: samples land on their ring owners, the NDJSON
// sub-batches parse back to the original samples, and a failed leg
// produces an IngestError naming both the acked and failed shards.
func TestRouteIngestPartitions(t *testing.T) {
	received := make([]chan []ingest.Sample, 3)
	m := &hashring.Map{Version: hashring.MapVersion}
	var fail atomic.Bool
	for i := 0; i < 3; i++ {
		i := i
		received[i] = make(chan []ingest.Sample, 8)
		id := fmt.Sprintf("shard-%d", i)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]string{"status": "ok", "shard_id": id})
		})
		mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
			if i == 2 && fail.Load() {
				http.Error(w, "sealed", http.StatusServiceUnavailable)
				return
			}
			samples, err := ingest.ParseNDJSON(r.Body, 10000)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			received[i] <- samples
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]interface{}{"lsn": 100 + i, "samples": len(samples)})
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		m.Shards = append(m.Shards, hashring.Shard{ID: id, Addr: srv.URL})
	}
	r := newTestRouter(t, m, func(c *Config) { c.MaxAttempts = 1 })
	r.CheckHealth(context.Background())

	var samples []ingest.Sample
	for u := 1; u <= 40; u++ {
		samples = append(samples,
			ingest.Sample{User: u, X: 0.1 * float64(u%7), Y: 0.30000000000000004, T: float64(u)},
			ingest.Sample{User: u, X: 0.1*float64(u%7) + 1e-17, Y: 0.3, T: float64(u) + 0.5})
	}
	res, err := r.RouteIngest(context.Background(), samples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != len(samples) {
		t.Fatalf("routed %d samples, want %d", res.Samples, len(samples))
	}
	seen := 0
	for i := range received {
	drain:
		for {
			select {
			case sub := <-received[i]:
				seen += len(sub)
				for j, s := range sub {
					if own := r.ring.Shards()[r.ring.ReplicaIndices(s.User, 1)[0]].ID; own != fmt.Sprintf("shard-%d", i) {
						t.Fatalf("shard-%d received user %d owned by %s", i, s.User, own)
					}
					// Wire round-trip must preserve exact float bits
					// (the 0.3/1e-17 values are chosen to break any
					// lossy formatting).
					if j > 0 && sub[j-1].User == s.User && sub[j-1].T >= s.T {
						t.Fatalf("per-user order broken on shard-%d: %v then %v", i, sub[j-1], s)
					}
				}
				for _, orig := range samples {
					for _, got := range sub {
						if got.User == orig.User && got.T == orig.T {
							if got.X != orig.X || got.Y != orig.Y {
								t.Fatalf("sample %d/%g mangled: %+v vs %+v", orig.User, orig.T, got, orig)
							}
						}
					}
				}
			default:
				break drain
			}
		}
		if _, ok := res.Shards[fmt.Sprintf("shard-%d", i)]; !ok && len(received[i]) > 0 {
			t.Fatalf("shard-%d received samples but has no LSN in the result", i)
		}
	}
	if seen != len(samples) {
		t.Fatalf("shards received %d samples, want %d", seen, len(samples))
	}

	// Now a leg fails: the error names the failed shard and keeps the
	// acked ones, so the caller knows a blind full retry re-ingests.
	fail.Store(true)
	_, err = r.RouteIngest(context.Background(), samples)
	ierr, ok := err.(*IngestError)
	if !ok {
		t.Fatalf("err = %v (%T), want *IngestError", err, err)
	}
	if _, bad := ierr.Failed["shard-2"]; !bad {
		t.Fatalf("failed legs = %v, want shard-2", ierr.Failed)
	}
	if len(ierr.Acked) == 0 {
		t.Fatalf("acked legs lost: %+v", ierr)
	}
	if !strings.Contains(ierr.Error(), "shard-2") {
		t.Fatalf("error text does not name the failed shard: %v", ierr)
	}
}

// The coordinator propagates the longest wait the failed legs asked
// for, compared as numbers: "10" beats "9". A hint that is not a
// usable number of seconds never wins.
func TestIngestErrorRetryAfter(t *testing.T) {
	for _, c := range []struct {
		hints []string
		want  string
	}{
		{nil, ""},
		{[]string{"3"}, "3"},
		{[]string{"9", "10"}, "10"},
		{[]string{"10", "9", ""}, "10"},
		{[]string{"soon", "2"}, "2"},
		{[]string{"-5"}, ""},
		{[]string{"9223372037", "5"}, "5"}, // 9 223 372 037 s overflows a time.Duration
	} {
		e := &IngestError{Failed: map[string]error{"no-status": fmt.Errorf("connection refused")}}
		for i, h := range c.hints {
			e.Failed[fmt.Sprint("shard-", i)] = fmt.Errorf("leg: %w", &StatusError{Status: 429, RetryAfter: h})
		}
		if got := e.RetryAfter(); got != c.want {
			t.Errorf("hints %q: RetryAfter() = %q, want %q", c.hints, got, c.want)
		}
	}
}

// Config validation and defaulting.
func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil Map accepted")
	}
	if _, err := New(Config{Map: &hashring.Map{Version: 99}}); err == nil {
		t.Fatal("invalid map accepted")
	}
}

// The fan-out plan — segment tree, shard-ID list, marshalled ring
// description — is built once in New; per query the set-up is one
// query prefix and one body per leg, appended, not marshalled. The pin
// keeps per-query ring walks and per-leg marshals from creeping back.
func TestTopKFanoutSetupAllocs(t *testing.T) {
	_, m := newFakeShards(t, 4, nil)
	r := newTestRouter(t, m, func(c *Config) { c.Replicas = 2 })
	if len(r.segRoots) != 4 {
		t.Fatalf("%d root legs, want one per shard (4)", len(r.segRoots))
	}
	q := testQuery(5)
	var size int
	avg := testing.AllocsPerRun(100, func() {
		prefix := legPrefix(q)
		for _, n := range r.segRoots {
			size += len(n.body(prefix))
		}
	})
	if want := float64(1 + len(r.segRoots)); avg != want || size == 0 {
		t.Fatalf("fan-out set-up: %v allocs per query, want %v (the prefix and one body per leg)", avg, want)
	}
}

// Healthy, a replicated fan-out is one leg per shard, each asking for
// the tuples the shard leads; a dead shard's leg splits by next replica
// and every piece goes to that replica. Counts stay in segments.
func TestTopKOneLegPerShard(t *testing.T) {
	type leg struct{ host, members string }
	var mu sync.Mutex
	var legs []leg
	shards, m := newFakeShards(t, 4, func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Segment struct {
				R       int      `json:"r"`
				Members []string `json:"members"`
			} `json:"segment"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Segment.R != 2 {
			http.Error(w, "bad leg", http.StatusBadRequest)
			return
		}
		mu.Lock()
		legs = append(legs, leg{"http://" + r.Host, strings.Join(body.Segment.Members, "+")})
		mu.Unlock()
		io.WriteString(w, "[]")
	})
	r := newTestRouter(t, m, func(c *Config) { c.Replicas = 2; c.MaxAttempts = 1 })
	r.CheckHealth(context.Background())
	segments := len(r.ring.Segments(2))
	addrOf := map[string]string{}
	for _, s := range shards {
		addrOf[s.id] = s.srv.URL
	}

	res, err := r.TopK(context.Background(), testQuery(5))
	if err != nil || res.Partial || res.Queried != segments || res.FailedOver != 0 {
		t.Fatalf("healthy: res=%+v err=%v, want %d segments queried, none failed over", res, err, segments)
	}
	if len(legs) != 4 {
		t.Fatalf("healthy fan-out sent %d legs, want one per shard: %v", len(legs), legs)
	}
	for _, l := range legs {
		if addrOf[l.members] != l.host {
			t.Fatalf("leg %q went to %s, want the shard it names", l.members, l.host)
		}
	}

	shards[1].srv.Close()
	r.CheckHealth(context.Background())
	legs = nil
	res, err = r.TopK(context.Background(), testQuery(5))
	led := 0 // segments shard-1 leads: each fails over once
	for _, tuple := range r.ring.Segments(2) {
		if tuple[0] == 1 {
			led++
		}
	}
	if err != nil || res.Partial || res.Queried != segments || res.FailedOver != led {
		t.Fatalf("shard-1 down: res=%+v err=%v, want %d segments queried, %d failed over", res, err, segments, led)
	}
	if len(legs) != 3+led {
		t.Fatalf("shard-1 down: %d legs, want 3 whole shards + %d pieces of shard-1: %v", len(legs), led, legs)
	}
	for _, l := range legs {
		members := strings.Split(l.members, "+")
		if last := members[len(members)-1]; addrOf[last] != l.host || (len(members) == 2) != (members[0] == "shard-1") {
			t.Fatalf("shard-1 down: leg %q went to %s", l.members, l.host)
		}
	}
}
