package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestPairsEndpoint(t *testing.T) {
	s, db := testServer(t)
	rec, list := doList(t, s.Handler(), "GET", "/v1/pairs?k=5", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if len(list) == 0 || len(list) > 5 {
		t.Fatalf("got %d pairs", len(list))
	}
	prev := 2.0
	for _, p := range list {
		a, b := int(p["a"].(float64)), int(p["b"].(float64))
		sim := p["similarity"].(float64)
		if a >= b {
			t.Errorf("pair not ordered: %v", p)
		}
		if sim > prev {
			t.Errorf("pairs not best-first")
		}
		prev = sim
		if _, ok := db.IndexOf(a); !ok {
			t.Errorf("pair references unknown user %d", a)
		}
	}
	rec, _ = do(t, s.Handler(), "GET", "/v1/pairs?k=0", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("k=0 status %d", rec.Code)
	}
}

// /v1/pairs honours its deadline: a request whose deadline has passed
// answers 503 without running the self-join, and leaves no admission
// slot taken — the next request is answered.
func TestPairsDeadline503(t *testing.T) {
	s := NewWithOptions(testCorpus(t), Options{MaxInflightQueries: 1})
	h := s.Handler()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/pairs?k=5", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("expired deadline: status %d %s, want 503 with Retry-After", rec.Code, rec.Body)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("the 503 took %v", d)
	}
	if rec, _ := do(t, h, "GET", "/v1/pairs?k=5", ""); rec.Code != http.StatusOK {
		t.Fatalf("the request after the 503: status %d", rec.Code)
	}
}
