package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"geofootprint/internal/extract"
	"geofootprint/internal/faultfs"
	"geofootprint/internal/ingest"
)

func testIngestConfig(t *testing.T) ingest.Config {
	t.Helper()
	dir := t.TempDir()
	return ingest.Config{
		WALPath:      filepath.Join(dir, "srv.wal"),
		SnapshotPath: filepath.Join(dir, "srv.snap"),
		Extract:      extract.Config{Epsilon: 0.05, Tau: 4},
		SessionGap:   10,
	}
}

// attach wires a pipeline to a test server and arranges its shutdown.
func attach(t *testing.T, s *Server, cfg ingest.Config) *ingest.Pipeline {
	t.Helper()
	p, err := s.AttachPipeline(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// dwellBatch is an NDJSON body that certainly finishes one RoI for
// user: a τ-long dwell followed by a sample past the session gap.
func dwellBatch(user int, x, y float64) string {
	var b strings.Builder
	for i := 1; i <= 5; i++ {
		fmt.Fprintf(&b, `{"user":%d,"x":%g,"y":%g,"t":%d}`+"\n", user, x, y, i)
	}
	fmt.Fprintf(&b, `{"user":%d,"x":0.95,"y":0.95,"t":1000}`+"\n", user)
	return b.String()
}

func TestIngestEndpoint(t *testing.T) {
	s, db := testServer(t)
	p := attach(t, s, testIngestConfig(t))
	h := s.Handler()

	before := db.Len()
	rec, obj := do(t, h, "POST", "/v1/ingest", dwellBatch(9001, 0.4, 0.4))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if obj["lsn"].(float64) < 1 || obj["samples"].(float64) != 6 {
		t.Fatalf("ack = %v", obj)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if db.Len() != before+1 {
		t.Fatalf("corpus %d users, want %d", db.Len(), before+1)
	}
	// The new footprint is immediately queryable, on both engines.
	for _, path := range []string{
		"/v1/users/9001",
		"/v1/users/9001/similar?k=3",
		"/v1/users/9001/similar?k=3&method=sketch",
	} {
		if rec, _ := do(t, h, "GET", path, ""); rec.Code != http.StatusOK {
			t.Fatalf("GET %s after ingest: status %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	rec, obj = do(t, h, "GET", "/v1/ingest/stats", "")
	if rec.Code != http.StatusOK || obj["samples"].(float64) != 6 || obj["rois"].(float64) < 1 {
		t.Fatalf("stats %d: %v", rec.Code, obj)
	}

	// Malformed and empty bodies are client errors, not WAL writes.
	walBefore := p.Stats().WALBytes
	if rec, _ := do(t, h, "POST", "/v1/ingest", "{not json}\n"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", rec.Code)
	}
	if rec, _ := do(t, h, "POST", "/v1/ingest", "\n\n"); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d", rec.Code)
	}
	if got := p.Stats().WALBytes; got != walBefore {
		t.Fatalf("rejected bodies reached the WAL: %d -> %d", walBefore, got)
	}
}

// Backpressure surfaces as 429 + Retry-After, and the rejected batch
// never touches the WAL. The apply goroutine is parked by holding the
// server's write lock (serverSink serialises on it), which is exactly
// the production stall scenario: a long mutation backing up ingestion.
func TestIngestBackpressure429(t *testing.T) {
	s, _ := testServer(t)
	cfg := testIngestConfig(t)
	cfg.QueueDepth = 1
	p := attach(t, s, cfg)
	h := s.Handler()

	s.mu.Lock()
	if rec, _ := do(t, h, "POST", "/v1/ingest", dwellBatch(9001, 0.4, 0.4)); rec.Code != http.StatusAccepted {
		s.mu.Unlock()
		t.Fatalf("first batch: status %d", rec.Code)
	}
	// Wait for the apply goroutine to close a group around the first
	// batch (it then parks on the held lock); then one batch fills the
	// depth-1 queue instead of joining that group.
	for st := p.Stats(); st.Grouped < st.Appended; st = p.Stats() {
		time.Sleep(100 * time.Microsecond)
	}
	if rec, _ := do(t, h, "POST", "/v1/ingest", dwellBatch(9002, 0.6, 0.6)); rec.Code != http.StatusAccepted {
		s.mu.Unlock()
		t.Fatalf("second batch: status %d", rec.Code)
	}
	walBefore := p.Stats().WALBytes
	rec, _ := do(t, h, "POST", "/v1/ingest", dwellBatch(9003, 0.2, 0.2))
	// PUT and DELETE are records of the same pipeline: the full queue
	// refuses them too, before they reach the WAL.
	put, _ := do(t, h, "PUT", "/v1/users/9004", `[{"rect":[0.1,0.1,0.2,0.2],"weight":1}]`)
	del, _ := do(t, h, "DELETE", "/v1/users/105", "")
	s.mu.Unlock()
	for name, rec := range map[string]*httptest.ResponseRecorder{"ingest": rec, "PUT": put, "DELETE": del} {
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s on a full queue: status %d, want 429", name, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: 429 without Retry-After", name)
		}
	}
	if got := p.Stats().WALBytes; got != walBefore {
		t.Fatalf("rejected batch reached the WAL: %d -> %d", walBefore, got)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.builder.DB().IndexOf(9002); !ok {
		t.Fatal("accepted batch was not applied")
	}
	if _, ok := s.builder.DB().IndexOf(9003); ok {
		t.Fatal("rejected batch was applied")
	}
	if _, ok := s.builder.DB().IndexOf(9004); ok {
		t.Fatal("rejected PUT was applied")
	}
	if u, ok := s.builder.DB().IndexOf(105); !ok || s.builder.DB().RowLen(u) == 0 {
		t.Fatal("rejected DELETE was applied")
	}
}

// Queries on every search method race PUT, DELETE and streaming
// ingestion. The properties under test: no data race (the -race run in
// make check), and every response internally consistent — a well-formed
// status with decodable JSON, never a torn read.
func TestConcurrentQueriesDuringMutation(t *testing.T) {
	s, db := testServer(t)
	p := attach(t, s, testIngestConfig(t))
	h := s.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	fail := make(chan string, 64)
	report := func(format string, args ...interface{}) {
		select {
		case fail <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// HTTP readers: both server engines plus the ad-hoc query and
	// point-read endpoints.
	paths := []string{
		"/v1/users/105/similar?k=5",
		"/v1/users/110/similar?k=5&method=sketch",
		"/v1/users/107",
		"/v1/similarity?a=100&b=101",
		"/v1/users?limit=10",
	}
	for gi, path := range paths {
		wg.Add(1)
		go func(gi int, path string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec, _ := do(t, h, "GET", path, "")
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					report("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
					return
				}
			}
		}(gi, path)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := `{"regions":[{"rect":[0.1,0.1,0.6,0.6]}],"k":5}`
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, method := range []string{`"user-centric"`, `"sketch"`} {
				b := strings.Replace(body, `"k":5`, `"method":`+method+`,"k":5`, 1)
				if rec, _ := do(t, h, "POST", "/v1/query", b); rec.Code != http.StatusOK {
					report("POST /v1/query %s: status %d", method, rec.Code)
					return
				}
			}
		}
	}()
	// Engine readers for the lazily built methods (linear, iterative,
	// batch), each against the epoch it loaded — no lock, like the handlers,
	// which reach the same engines through View.Engine. Every publish
	// starts a fresh view, so the readers keep racing its sync.Once
	// construction against each other and against the mutators.
	for _, m := range []string{"linear", "iterative", "batch"} {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, _ := s.acquire()
				e, err := v.Engine(m)
				if err != nil {
					report("method %s: %v", m, err)
					return
				}
				res := e.TopK(v.DB().Row(0), 5)
				for i := 1; i < len(res); i++ {
					if res[i].Score > res[i-1].Score {
						report("method %s: unsorted results %v", m, res)
						return
					}
				}
			}
		}(m)
	}

	// Mutators: PUT/DELETE cycles and streaming ingestion.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 100 + rng.Intn(30)
			if i%3 == 2 {
				rec, _ := do(t, h, "DELETE", fmt.Sprintf("/v1/users/%d", id), "")
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					report("DELETE %d: status %d", id, rec.Code)
					return
				}
				continue
			}
			x := rng.Float64() * 0.8
			body := fmt.Sprintf(`[{"rect":[%g,%g,%g,%g],"weight":2}]`, x, x, x+0.05, x+0.05)
			rec, _ := do(t, h, "PUT", fmt.Sprintf("/v1/users/%d", id), body)
			if rec.Code != http.StatusOK {
				report("PUT %d: status %d: %s", id, rec.Code, rec.Body.String())
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(100))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			user := 9000 + i%20
			rec, _ := do(t, h, "POST", "/v1/ingest", dwellBatch(user, rng.Float64()*0.8, rng.Float64()*0.8))
			if rec.Code != http.StatusAccepted && rec.Code != http.StatusTooManyRequests {
				report("ingest: status %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if db.Len() < 30 {
		t.Fatalf("corpus shrank to %d", db.Len())
	}
}

// A sealed WAL must be visible end to end: POST /v1/ingest answers
// 503, /v1/ingest/stats carries the seal and its cause, and /healthz
// degrades — the satellite fix for background-fsync errors hiding
// until the next append.
func TestSealedWALSurfacesEverywhere(t *testing.T) {
	s, _ := testServer(t)
	cfg := testIngestConfig(t)
	// Sync #1 (the first batch's fsync under the default per-append
	// policy) fails: the WAL seals on the very first ingest.
	cfg.FS = faultfs.NewFault(faultfs.OS, faultfs.Schedule{FailSyncN: 1})
	attach(t, s, cfg)
	h := s.Handler()

	rec, _ := do(t, h, "POST", "/v1/ingest", dwellBatch(9100, 0.3, 0.3))
	if rec.Code != http.StatusInternalServerError && rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest onto failing WAL returned %d, want an error status", rec.Code)
	}

	rec, obj := do(t, h, "POST", "/v1/ingest", dwellBatch(9101, 0.3, 0.3))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest onto sealed WAL returned %d, want 503", rec.Code)
	}
	if msg, _ := obj["error"].(string); !strings.Contains(msg, "sealed") {
		t.Fatalf("sealed-WAL error body %q does not mention the seal", msg)
	}
	// PUT and DELETE write through the same log.
	for _, wr := range []struct{ method, path, body string }{
		{"PUT", "/v1/users/9102", `[{"rect":[0.1,0.1,0.2,0.2],"weight":1}]`},
		{"DELETE", "/v1/users/105", ""},
	} {
		rec, obj := do(t, h, wr.method, wr.path, wr.body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s onto sealed WAL returned %d, want 503", wr.method, rec.Code)
		}
		if msg, _ := obj["error"].(string); !strings.Contains(msg, "sealed") {
			t.Fatalf("%s: sealed-WAL error body %q does not mention the seal", wr.method, msg)
		}
	}

	rec, obj = do(t, h, "GET", "/v1/ingest/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats returned %d", rec.Code)
	}
	if obj["wal_sealed"] != true {
		t.Fatalf("stats do not report the seal: %v", obj)
	}
	if msg, _ := obj["wal_error"].(string); msg == "" {
		t.Fatal("stats carry no wal_error cause")
	}

	rec, obj = do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz returned %d", rec.Code)
	}
	if obj["status"] != "degraded" || obj["wal_sealed"] != true {
		t.Fatalf("healthz does not degrade on a sealed WAL: %v", obj)
	}
}

// /healthz reports ingest_seq — the last acknowledged WAL LSN — once a
// pipeline is attached. The router's stale-replica tracking compares
// it against acked LSNs, so it must be present, numeric, and advance
// with every acked batch.
func TestHealthIngestSeq(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	// Without a pipeline there is no WAL, hence no ingest_seq.
	_, obj := do(t, h, "GET", "/healthz", "")
	if _, present := obj["ingest_seq"]; present {
		t.Fatalf("ingest_seq present without a pipeline: %v", obj["ingest_seq"])
	}

	attach(t, s, testIngestConfig(t))
	_, obj = do(t, h, "GET", "/healthz", "")
	seq, ok := obj["ingest_seq"].(float64)
	if !ok {
		t.Fatalf("ingest_seq missing with a pipeline attached: %v", obj)
	}

	rec, ack := do(t, h, "POST", "/v1/ingest", dwellBatch(9500, 0.4, 0.4))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest returned %d", rec.Code)
	}
	_, obj = do(t, h, "GET", "/healthz", "")
	seq2, _ := obj["ingest_seq"].(float64)
	if seq2 <= seq {
		t.Fatalf("ingest_seq did not advance: %v -> %v", seq, seq2)
	}
	if lsn, _ := ack["lsn"].(float64); lsn != seq2 {
		t.Fatalf("acked lsn %v != healthz ingest_seq %v", lsn, seq2)
	}
}
