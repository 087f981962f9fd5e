package server

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// A panicking handler becomes a 500 and the server keeps serving:
// the recovery middleware catches the panic, logs the stack, and the
// next request on the same handler chain succeeds.
func TestPanicRecovery(t *testing.T) {
	s, _ := testServer(t)
	var buf bytes.Buffer
	s.opts.Logger = log.New(&buf, "", 0)
	s.mux.HandleFunc("GET /v1/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	h := s.Handler()

	rec, obj := do(t, h, "GET", "/v1/boom", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", rec.Code)
	}
	if obj["error"] == nil {
		t.Fatal("500 carried no error body")
	}
	if !strings.Contains(buf.String(), "kaboom") || !strings.Contains(buf.String(), "goroutine") {
		t.Fatalf("panic log lacks message or stack:\n%s", buf.String())
	}

	// The process (and mux) survived: a normal route still answers.
	if rec, _ := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic returned %d, want 200", rec.Code)
	}
}

// ?timeout_ms= puts a deadline on the request context; an expired
// deadline on a query maps to 503 with Retry-After. A test route
// waits out its own deadline before running the engine, so the expiry
// path is exercised deterministically regardless of corpus size.
func TestQueryTimeoutMaps503(t *testing.T) {
	s, _ := testServer(t)
	s.mux.HandleFunc("GET /v1/slow", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // the query "ran long"
		v, _ := s.acquire()
		eng, _ := v.Engine("")
		res, err := eng.TopKCtx(r.Context(), v.DB().Row(0), 3)
		if writeQueryCtxErr(w, err) {
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	h := s.Handler()

	// A generous timeout succeeds on a real route.
	rec, _ := do(t, h, "GET", "/v1/users/100/similar?k=3&timeout_ms=10000", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("similar with 10s timeout returned %d, want 200", rec.Code)
	}

	rec, obj := do(t, h, "GET", "/v1/slow?timeout_ms=1", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired query returned %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("timeout 503 without Retry-After")
	}
	if obj["error"] == nil {
		t.Fatal("timeout 503 without error body")
	}
}

// A malformed timeout_ms is rejected up front.
func TestBadTimeoutRejected(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	for _, raw := range []string{"abc", "-5", "0"} {
		rec, _ := do(t, h, "GET", "/v1/users/100/similar?timeout_ms="+raw, "")
		if rec.Code != http.StatusBadRequest {
			t.Errorf("timeout_ms=%s returned %d, want 400", raw, rec.Code)
		}
	}
}

// A valid timeout_ms is clamped to MaxTimeout before it becomes a
// Duration: 18446744073710 ms overflows one into a 448 µs deadline.
func TestQueryTimeoutClamped(t *testing.T) {
	s, _ := testServer(t)
	s.opts.DefaultTimeout = 2 * time.Second
	for _, c := range []struct {
		raw  string
		want time.Duration
	}{
		{"", 2 * time.Second},
		{"250", 250 * time.Millisecond},
		{"29999", 29999 * time.Millisecond},
		{"30000", DefaultMaxTimeout},
		{"30001", DefaultMaxTimeout},
		{"18446744073710", DefaultMaxTimeout},
		{"9223372036854775807", DefaultMaxTimeout},
	} {
		r := httptest.NewRequest("GET", "/v1/users/100/similar?timeout_ms="+c.raw, nil)
		if got, err := s.queryTimeout(r); err != nil || got != c.want {
			t.Errorf("timeout_ms=%s: %v (err %v), want %v", c.raw, got, err, c.want)
		}
	}
}

// The admission gate sheds top-k load with 429 + Retry-After once all
// slots are held, without touching cheap routes; freeing a slot
// restores service. The slot is held directly through the channel, so
// the test is deterministic.
func TestAdmissionGateSheds(t *testing.T) {
	s, _ := testServer(t)
	s.opts.MaxInflightQueries = 1
	s.gate = make(chan struct{}, 1)
	h := s.Handler()

	s.gate <- struct{}{} // occupy the only slot
	for _, route := range [][3]string{
		{"GET", "/v1/users/100/similar?k=3", ""},
		{"POST", "/v1/query", `{"k":2,"regions":[{"rect":[0,0,1,1]}]}`},
	} {
		rec, _ := do(t, h, route[0], route[1], route[2])
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s %s at capacity returned %d, want 429", route[0], route[1], rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s %s: 429 without Retry-After", route[0], route[1])
		}
	}

	// Cheap routes are not gated.
	if rec, _ := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz at query capacity returned %d, want 200", rec.Code)
	}
	if rec, _ := do(t, h, "GET", "/v1/users/100", ""); rec.Code != http.StatusOK {
		t.Fatalf("user lookup at query capacity returned %d, want 200", rec.Code)
	}

	<-s.gate // release
	if rec, _ := do(t, h, "GET", "/v1/users/100/similar?k=3", ""); rec.Code != http.StatusOK {
		t.Fatalf("gated route after release returned %d, want 200", rec.Code)
	}
}

// While draining, every route but /healthz sheds with 503 +
// Retry-After, and /healthz reports the drain so orchestrators can
// watch the server wind down.
func TestDrainGate(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()

	s.SetDraining(true)
	rec, _ := do(t, h, "GET", "/v1/users/100/similar?k=3", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server returned %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After")
	}
	rec, obj := do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining returned %d, want 200", rec.Code)
	}
	if obj["status"] != "draining" || obj["draining"] != true {
		t.Fatalf("healthz while draining reported %v", obj)
	}

	s.SetDraining(false)
	if rec, _ := do(t, h, "GET", "/v1/users/100/similar?k=3", ""); rec.Code != http.StatusOK {
		t.Fatalf("post-drain request returned %d, want 200", rec.Code)
	}
}

// The full wrapped chain works end to end over a real listener — the
// shape geoserve runs — including a panic that must not kill the
// process.
func TestWrappedChainOverListener(t *testing.T) {
	s, _ := testServer(t)
	s.opts.Logger = log.New(io.Discard, "", 0)
	s.mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("listener kaboom")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic over listener: %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/users/100/similar?k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after panic: %d, want 200", resp.StatusCode)
	}
}
