package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"geofootprint/internal/colstore"
	"geofootprint/internal/ingest"
	"geofootprint/internal/store"
)

// savedCorpus writes the seed corpus, sketch layer and one tombstone
// (user 127) included, to a columnar file and returns the in-memory
// database and the path.
func savedCorpus(t *testing.T) (*store.FootprintDB, string) {
	t.Helper()
	db := testCorpus(t)
	db.Remove(127)
	db.EnableSketches(0, 0)
	path := filepath.Join(t.TempDir(), "corpus.col")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	return db, path
}

// rowReads is one request to every endpoint that reads stored rows,
// plus the top-k routes over every method.
func rowReads() []struct{ method, path, body string } {
	reqs := []struct{ method, path, body string }{
		{"GET", "/v1/users/103", ""},
		{"GET", "/v1/users/127", ""},
		{"GET", "/v1/users/128", ""},
		{"GET", "/v1/users/999", ""},
		{"GET", "/v1/similarity?a=103&b=111", ""},
		{"GET", "/v1/similarity?a=111&b=103", ""},
		{"GET", "/v1/explain?a=103&b=111&pairs=5", ""},
		{"GET", "/v1/users?offset=0&limit=100", ""},
		{"GET", "/v1/users?offset=7&limit=5", ""},
		{"GET", "/v1/pairs?k=10", ""},
		{"POST", "/v1/query", `{"k":5,"regions":[{"rect":[0.1,0.1,0.6,0.6],"weight":1}]}`},
	}
	for _, m := range []string{"", "linear", "iterative", "batch", "user-centric", "sketch"} {
		for _, id := range []int{100, 111, 124} {
			reqs = append(reqs,
				struct{ method, path, body string }{"GET", fmt.Sprintf("/v1/users/%d/similar?k=5&method=%s", id, m), ""},
				struct{ method, path, body string }{"GET", fmt.Sprintf("/v1/users/%d/similar?k=50&exclude_self=true&method=%s", id, m), ""})
		}
	}
	return reqs
}

// A server over an opened database (its chunks alias the mapping)
// answers every row-reading endpoint with the bytes a server over the
// loaded database (the same chunks, plus the Footprints export) writes —
// before any write, and after each PUT and DELETE has rewritten a chunk
// on both.
func TestOpenedServerByteIdentical(t *testing.T) {
	_, path := savedCorpus(t)
	opened, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	ho, hl := New(opened).Handler(), New(loaded).Handler()

	same := func(stage string) {
		t.Helper()
		for _, rq := range rowReads() {
			ro, _ := do(t, ho, rq.method, rq.path, rq.body)
			rl, _ := do(t, hl, rq.method, rq.path, rq.body)
			if ro.Code != rl.Code || !bytes.Equal(ro.Body.Bytes(), rl.Body.Bytes()) {
				t.Fatalf("%s: %s %s\nopened: %d %s\nloaded: %d %s", stage, rq.method, rq.path,
					ro.Code, ro.Body, rl.Code, rl.Body)
			}
		}
	}
	same("before writes")
	// DELETE of a tombstone or an unknown user is a 404 that writes
	// nothing: the tombstone check reads the row length from the columns.
	for _, path := range []string{"/v1/users/127", "/v1/users/998"} {
		for name, h := range map[string]http.Handler{"opened": ho, "loaded": hl} {
			if rec, _ := do(t, h, "DELETE", path, ""); rec.Code != http.StatusNotFound {
				t.Fatalf("%s: DELETE %s: status %d, want 404", name, path, rec.Code)
			}
		}
	}

	writes := []struct {
		method, path, body string
		code               int
	}{
		{"PUT", "/v1/users/500", `[{"rect":[0.3,0.3,0.5,0.5],"weight":1},{"rect":[0.1,0.2,0.4,0.3],"weight":2}]`, http.StatusOK},
		{"PUT", "/v1/users/111", `[{"rect":[0.2,0.2,0.45,0.5],"weight":1}]`, http.StatusOK},
		{"DELETE", "/v1/users/124", "", http.StatusOK},
		{"DELETE", "/v1/users/124", "", http.StatusNotFound},
	}
	for i, wr := range writes {
		for name, h := range map[string]http.Handler{"opened": ho, "loaded": hl} {
			if rec, _ := do(t, h, wr.method, wr.path, wr.body); rec.Code != wr.code {
				t.Fatalf("%s: %s %s: status %d, want %d: %s", name, wr.method, wr.path, rec.Code, wr.code, rec.Body)
			}
		}
		same(fmt.Sprintf("after write %d (%s %s)", i, wr.method, wr.path))
	}
	_, obj := do(t, ho, "GET", "/healthz", "")
	if int(obj["users"].(float64)) != 31 || int(obj["regions"].(float64)) != 29*3+2-3+1-3 {
		t.Fatalf("healthz after writes: %v", obj)
	}
}

// A SIGTERM on a WAL-backed server recovered from a snapshot and
// never written to checkpoints the columns it opened: the snapshot it
// leaves holds exactly the source database's Columnar() encoding (the
// checkpoint meta apart).
func TestOpenedCheckpointMatchesSource(t *testing.T) {
	src, _ := savedCorpus(t)
	cfg := testIngestConfig(t)
	if err := src.Save(cfg.SnapshotPath); err != nil {
		t.Fatal(err)
	}
	rec, err := ingest.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(rec.DB)
	p, err := s.AttachPipeline(cfg, rec.State)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, rq := range rowReads() {
		do(t, h, rq.method, rq.path, rq.body)
	}
	// geoserve's shutdown sequence on SIGTERM.
	s.SetDraining(true)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	cp, err := colstore.Open(cfg.SnapshotPath, colstore.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Meta == nil {
		t.Fatal("the checkpoint carries no meta")
	}
	cp.Meta = nil
	var got, want bytes.Buffer
	if err := cp.EncodeTo(&got); err != nil {
		t.Fatal(err)
	}
	if err := src.Columnar(nil).EncodeTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("checkpoint of the opened server (%d bytes) differs from the source's encoding (%d bytes)", got.Len(), want.Len())
	}
}

// A /similar miss reads its query row into pooled scratch: on an
// opened database, on a loaded one, and on one whose chunk PUTs and a
// DELETE have rewritten (the query's row and answer unchanged), it
// allocates no more than the 15 it did when every served database held
// AoS footprints. (Measured without a cache, so every request is a
// miss.)
func TestSimilarMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	_, path := savedCorpus(t)
	for _, backing := range []string{"opened", "loaded", "written"} {
		open := store.Open
		if backing == "loaded" {
			open = store.Load
		}
		db, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		h := New(db).Handler()
		if backing == "written" {
			for _, wr := range []struct{ method, path, body string }{
				{"PUT", "/v1/users/500", `[{"rect":[0.7,0.7,0.75,0.8],"weight":1}]`},
				{"PUT", "/v1/users/110", `[{"rect":[0.8,0.8,0.85,0.9],"weight":2}]`},
				{"DELETE", "/v1/users/111", ""},
			} {
				if rec, _ := do(t, h, wr.method, wr.path, wr.body); rec.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", wr.method, wr.path, rec.Code, rec.Body)
				}
			}
		}
		for _, m := range []string{"", "linear", "sketch"} {
			req := httptest.NewRequest("GET", "/v1/users/105/similar?k=5&method="+m, nil)
			w := &answerSink{header: http.Header{}}
			h.ServeHTTP(w, req)
			allocs := testing.AllocsPerRun(100, func() {
				clear(w.header)
				w.status, w.n = 0, 0
				h.ServeHTTP(w, req)
			})
			if w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("%s/%q: status %d, %d bytes", backing, m, w.status, w.n)
			}
			if allocs > 15 {
				t.Fatalf("%s/%q: a /similar miss allocates %v times, want at most 15", backing, m, allocs)
			}
		}
	}
	// The answer itself is the oracle's, on the opened backing.
	db, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := do(t, New(db).Handler(), "GET", "/v1/users/105/similar?k=5", "")
	if want := similarOracle(db, 105, 5, false); strings.TrimSpace(rec.Body.String()) != strings.TrimSpace(want) {
		t.Fatalf("opened /similar: %s, want %s", rec.Body, want)
	}
	var out []resultJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out) == 0 {
		t.Fatalf("opened /similar answered %s (%v)", rec.Body, err)
	}
}
