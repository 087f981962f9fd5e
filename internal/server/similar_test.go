package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"geofootprint/internal/search"
	"geofootprint/internal/store"
)

// answerSink is a ResponseWriter that keeps the status and the body
// length and reuses one header map, so an allocation count through it
// is the handler's own.
type answerSink struct {
	header http.Header
	status int
	n      int
}

func (w *answerSink) Header() http.Header { return w.header }

func (w *answerSink) WriteHeader(status int) { w.status = status }

func (w *answerSink) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// A /similar cache hit through the whole handler chain — recovery,
// drain gate, deadline, mux, admission gate, handler — is a load, a
// lookup and a write: it parses its query string once without
// allocating, arms no deadline and re-encodes nothing. What it
// allocates is the mux's path match and the Content-Type header value.
func TestSimilarHitAllocs(t *testing.T) {
	s := NewWithOptions(testCorpus(t), Options{CacheSize: 64})
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/users/105/similar?k=5&method=sketch", nil)
	w := &answerSink{header: http.Header{}}
	h.ServeHTTP(w, req) // the miss
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("miss: status %d, %d bytes", w.status, w.n)
	}
	before, _ := s.CacheStats()
	allocs := testing.AllocsPerRun(100, func() {
		clear(w.header)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
	})
	after, _ := s.CacheStats()
	if w.status != http.StatusOK || w.n == 0 || after.Hits-before.Hits != 101 || after.Misses != before.Misses {
		t.Fatalf("hits: status %d, %d bytes, cache %+v then %+v", w.status, w.n, before, after)
	}
	if allocs > 2 {
		t.Fatalf("a /similar hit allocates %v times, want at most 2", allocs)
	}
}

// similarOracle is the body GET /v1/users/{id}/similar must answer on
// db: LinearScan's ranking of the user's footprint, the user left out
// when excludeSelf, cut to k, as json.NewEncoder writes it.
func similarOracle(db *store.FootprintDB, id, k int, excludeSelf bool) string {
	u, _ := db.IndexOf(id)
	out := make([]resultJSON, 0, k)
	for _, r := range search.NewLinearScan(db).TopK(db.Row(u), k+1) {
		if excludeSelf && r.ID == id {
			continue
		}
		if len(out) < k {
			out = append(out, resultJSON{ID: r.ID, Similarity: r.Score})
		}
	}
	var b bytes.Buffer
	json.NewEncoder(&b).Encode(out)
	return b.String()
}

// Readers race on a cache far smaller than their working set, so most
// computed answers meet a full cache and go through admission; every
// body is still LinearScan's, hits happen, and answers are rejected.
// Run under -race.
func TestSimilarAdmissionConcurrent(t *testing.T) {
	db := testCorpus(t)
	s := NewWithOptions(db, Options{CacheSize: 4})
	h := s.Handler()
	want := map[string]string{}
	var paths []string
	for id := 100; id < 130; id++ {
		p := fmt.Sprintf("/v1/users/%d/similar?k=3", id)
		paths = append(paths, p)
		want[p] = similarOracle(db, id, 3, false)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				// Skewed: low IDs recur far more often than high ones.
				p := paths[(i*(g+1))%(1+i%len(paths))]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
				if rec.Code != http.StatusOK || rec.Body.String() != want[p] {
					t.Errorf("%s: %d %s, want %s", p, rec.Code, rec.Body, want[p])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st, _ := s.CacheStats(); st.Hits == 0 || st.Rejected == 0 || st.Entries > 4 {
		t.Fatalf("cache %+v: admission never exercised", st)
	}
	_, health := do(t, h, "GET", "/healthz", "")
	if c, _ := health["cache"].(map[string]interface{}); c == nil || c["rejected"] == nil || c["rejected"].(float64) == 0 {
		t.Fatalf("/healthz cache = %v, want a non-zero rejected count", health["cache"])
	}
}

// parseSimilarQuery reads what url.ParseQuery followed by Get reads.
func TestSimilarQueryParse(t *testing.T) {
	for _, raw := range []string{
		"", "k=5", "k=5&method=sketch", "k=3&exclude_self=true&method=linear",
		"k=1&k=2", "k=&k=2", "&&k=7&", "k", "k=5;method=linear", "method=a;b&method=c",
		"exclude%5Fself=true&k=%34", "method=%zz&method=linear", "method=us+er",
		"timeout_ms=5&k=9", "=5&k=4", "k=5=6",
	} {
		sameSimilarQuery(t, raw)
	}
}

func FuzzSimilarQuery(f *testing.F) {
	for _, raw := range []string{"k=5&method=sketch", "exclude_self=true&k=%35", "k=1;k=2&k=3"} {
		f.Add(raw)
	}
	f.Fuzz(sameSimilarQuery)
}

func sameSimilarQuery(t *testing.T, raw string) {
	vals, _ := url.ParseQuery(raw)
	want := similarQuery{k: vals.Get("k"), excludeSelf: vals.Get("exclude_self"), method: vals.Get("method")}
	if got := parseSimilarQuery(raw); got != want {
		t.Fatalf("%q: parsed %+v, url.ParseQuery %+v", raw, got, want)
	}
}
