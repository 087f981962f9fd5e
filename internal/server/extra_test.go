package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"geofootprint/internal/core"
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

// /v1/pairs sees the writes of the epoch it reads, whose user-centric
// tree is its base's: two users PUT after the base's tree was built,
// with one footprint, and a low-indexed user rewritten onto a
// high-indexed one's regions are paired as brute force pairs them.
func TestPairsSeeWrites(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	if rec, _ := doList(t, h, "GET", "/v1/pairs?k=5", ""); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	v, _ := s.acquire()
	body := func(f core.Footprint) string {
		regs := make([]string, len(f))
		for i, r := range f {
			regs[i] = fmt.Sprintf(`{"rect":[%v,%v,%v,%v],"weight":%v}`, r.Rect.MinX, r.Rect.MinY, r.Rect.MaxX, r.Rect.MaxY, r.Weight)
		}
		return "[" + strings.Join(regs, ",") + "]"
	}
	db := v.DB()
	last := db.Len() - 1
	for _, put := range []struct {
		id   int
		body string
	}{
		{db.IDs[0], body(db.Row(last))},
		{900, `[{"rect":[0.9,0.9,0.95,0.95],"weight":1}]`},
		{901, `[{"rect":[0.9,0.9,0.95,0.95],"weight":1}]`},
	} {
		if rec, _ := do(t, h, "PUT", fmt.Sprintf("/v1/users/%d", put.id), put.body); rec.Code != http.StatusOK {
			t.Fatalf("PUT %d: status %d", put.id, rec.Code)
		}
	}
	if now, _ := s.acquire(); now.Index().Tree() != v.Index().Tree() {
		t.Fatal("the epoch after the writes does not share its base's tree")
	}
	v, _ = s.acquire()
	db = v.DB()
	want := map[[2]int]float64{}
	for i := 0; i < db.Len(); i++ {
		for j := i + 1; j < db.Len(); j++ {
			if sim := core.SimilarityNaive(db.Row(i), db.Row(j)); sim > 0 {
				want[[2]int{min(db.IDs[i], db.IDs[j]), max(db.IDs[i], db.IDs[j])}] = sim
			}
		}
	}
	for _, p := range [][2]int{{db.IDs[0], db.IDs[last]}, {900, 901}} {
		if _, ok := want[p]; !ok {
			t.Fatalf("brute force has no %v pair", p)
		}
	}
	rec, list := doList(t, h, "GET", "/v1/pairs?k=10000", "")
	if rec.Code != http.StatusOK || len(list) != len(want) {
		t.Fatalf("status %d, %d pairs, want %d", rec.Code, len(list), len(want))
	}
	for _, p := range list {
		key := [2]int{int(p["a"].(float64)), int(p["b"].(float64))}
		if sim, ok := want[key]; !ok || math.Abs(sim-p["similarity"].(float64)) > 1e-9 {
			t.Fatalf("pair %v scores %v, brute force %v (found %v)", key, p["similarity"], sim, ok)
		}
	}
}
