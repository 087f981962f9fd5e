package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
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
// answers 503 without running the self-join, and leaves no epoch pinned
// and no admission slot taken — the next request is answered.
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
	if pins := s.EpochStats().Pins; pins != 0 {
		t.Fatalf("%d epoch pins left after the 503", pins)
	}
	if rec, _ := do(t, h, "GET", "/v1/pairs?k=5", ""); rec.Code != http.StatusOK {
		t.Fatalf("the request after the 503: status %d", rec.Code)
	}
}

// TestClassifyEndpoint also pins that labels are not epoch state:
// SetLabels publishes nothing, so the epoch, its sequence and a cached
// top-k answer survive it, while the next /v1/classify answer reads
// the labels installed last.
func TestClassifyEndpoint(t *testing.T) {
	db := testCorpus(t)
	s := NewWithOptions(db, Options{CacheSize: 64})
	h := s.Handler()

	// Before labels are registered: 503.
	body := `{"regions":[{"rect":[0.1,0.1,0.2,0.2],"weight":1}]}`
	rec, _ := do(t, h, "POST", "/v1/classify", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unlabelled status %d", rec.Code)
	}

	// Label the first half of users by coarse location.
	labels := map[int]string{}
	for i := 0; i < db.Len()/2; i++ {
		name := "west"
		if db.MBRs[i].Center().X > 0.5 {
			name = "east"
		}
		labels[db.IDs[i]] = name
	}
	similar := "/v1/users/" + strconv.Itoa(db.IDs[3]) + "/similar?k=5"
	if rec, _ := do(t, h, "GET", similar, ""); rec.Code != http.StatusOK {
		t.Fatalf("similar status %d", rec.Code)
	}
	epochs := s.EpochStats()
	setLabels := func(labels map[int]string) {
		t.Helper()
		if err := s.SetLabels(labels, 5); err != nil {
			t.Fatalf("SetLabels: %v", err)
		}
		if got := s.EpochStats(); got != epochs {
			t.Fatalf("SetLabels moved the epochs: %+v, was %+v", got, epochs)
		}
	}
	setLabels(labels)
	before, _ := s.CacheStats()
	if rec, _ := do(t, h, "GET", similar, ""); rec.Code != http.StatusOK {
		t.Fatalf("similar status %d", rec.Code)
	}
	if after, _ := s.CacheStats(); after.Hits != before.Hits+1 {
		t.Fatalf("cached /similar answer missed after SetLabels: hits %d -> %d", before.Hits, after.Hits)
	}

	// Classify a footprint sitting on a labelled user.
	i, _ := db.IndexOf(db.IDs[0])
	r := db.Footprints[i][0].Rect
	body = `{"regions":[{"rect":[` +
		fm(r.MinX) + `,` + fm(r.MinY) + `,` + fm(r.MaxX) + `,` + fm(r.MaxY) + `],"weight":1}]}`
	classify := func(want string) {
		t.Helper()
		rec, obj := do(t, h, "POST", "/v1/classify", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("classify status %d: %v", rec.Code, obj)
		}
		if obj["label"] != want {
			t.Errorf("label = %v, want %v (votes %v)", obj["label"], want, obj["votes"])
		}
	}
	classify(labels[db.IDs[0]])
	// Other labels change the next answer.
	relabelled := map[int]string{}
	for id, name := range labels {
		relabelled[id] = "not-" + name
	}
	setLabels(relabelled)
	classify(relabelled[db.IDs[0]])
	// Bad body.
	rec, _ = do(t, h, "POST", "/v1/classify", "garbage")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("garbage status %d", rec.Code)
	}
	// Bad labels rejected, leaving the installed ones in place.
	if err := s.SetLabels(nil, 5); err == nil {
		t.Error("empty labels accepted")
	}
	if err := s.SetLabels(labels, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	classify(relabelled[db.IDs[0]])
}

func fm(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
