package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"geofootprint/internal/core"
	"geofootprint/internal/store"
)

func testServer(t *testing.T) (*Server, *store.FootprintDB) {
	t.Helper()
	db := testCorpus(t) // epoch_test.go: the deterministic seed corpus
	return New(db), db
}

func do(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var obj map[string]interface{}
	json.Unmarshal(rec.Body.Bytes(), &obj)
	return rec, obj
}

func doList(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, []map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var list []map[string]interface{}
	json.Unmarshal(rec.Body.Bytes(), &list)
	return rec, list
}

func TestHealth(t *testing.T) {
	s, db := testServer(t)
	rec, obj := do(t, s.Handler(), "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if obj["status"] != "ok" || int(obj["users"].(float64)) != db.Len() {
		t.Errorf("health = %v", obj)
	}
}

func TestGetUser(t *testing.T) {
	s, db := testServer(t)
	rec, obj := do(t, s.Handler(), "GET", "/v1/users/105", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, obj)
	}
	i, _ := db.IndexOf(105)
	if int(obj["id"].(float64)) != 105 {
		t.Errorf("id = %v", obj["id"])
	}
	if regs := obj["regions"].([]interface{}); len(regs) != len(db.Footprints[i]) {
		t.Errorf("regions = %d, want %d", len(regs), len(db.Footprints[i]))
	}
	// Unknown user.
	rec, _ = do(t, s.Handler(), "GET", "/v1/users/999", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown user status %d", rec.Code)
	}
	// Malformed id.
	rec, _ = do(t, s.Handler(), "GET", "/v1/users/xyz", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad id status %d", rec.Code)
	}
}

func TestSimilar(t *testing.T) {
	s, _ := testServer(t)
	rec, list := doList(t, s.Handler(), "GET", "/v1/users/105/similar?k=3", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if len(list) == 0 {
		t.Fatal("no results")
	}
	// Self ranks first with similarity 1.
	if int(list[0]["id"].(float64)) != 105 || list[0]["similarity"].(float64) < 1-1e-9 {
		t.Errorf("first result = %v", list[0])
	}
	// exclude_self drops it.
	_, list = doList(t, s.Handler(), "GET", "/v1/users/105/similar?k=3&exclude_self=true", "")
	for _, r := range list {
		if int(r["id"].(float64)) == 105 {
			t.Error("self returned despite exclude_self")
		}
	}
	// Bad k.
	rec, _ = do(t, s.Handler(), "GET", "/v1/users/105/similar?k=0", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("k=0 status %d", rec.Code)
	}
}

func TestPairwise(t *testing.T) {
	s, db := testServer(t)
	rec, obj := do(t, s.Handler(), "GET", "/v1/similarity?a=100&b=100", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if sim := obj["similarity"].(float64); sim < 1-1e-9 {
		t.Errorf("self similarity = %v", sim)
	}
	// Consistent with the library.
	rec, obj = do(t, s.Handler(), "GET", "/v1/similarity?a=100&b=101", "")
	if rec.Code != http.StatusOK {
		t.Fatal("pairwise failed")
	}
	ia, _ := db.IndexOf(100)
	ib, _ := db.IndexOf(101)
	want := core.SimilarityJoin(db.Footprints[ia], db.Footprints[ib], db.Norm(ia), db.Norm(ib))
	if got := obj["similarity"].(float64); got != want {
		t.Errorf("similarity = %v, want %v", got, want)
	}
	rec, _ = do(t, s.Handler(), "GET", "/v1/similarity?a=100", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing b status %d", rec.Code)
	}
	rec, _ = do(t, s.Handler(), "GET", "/v1/similarity?a=100&b=9999", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown b status %d", rec.Code)
	}
}

func TestAdHocQuery(t *testing.T) {
	s, db := testServer(t)
	// Query with user 100's own footprint: it must rank first.
	i, _ := db.IndexOf(100)
	regs := fromFootprint(db.Footprints[i])
	body, _ := json.Marshal(queryJSON{Regions: regs, K: 3})
	rec, list := doList(t, s.Handler(), "POST", "/v1/query", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if len(list) == 0 || int(list[0]["id"].(float64)) != 100 {
		t.Errorf("results = %v", list)
	}
	// Bad bodies.
	for _, bad := range []string{
		"not json",
		`{"regions":[],"k":0}`,
		`{"regions":[{"rect":[1,0,0,1],"weight":1}],"k":3}`,  // inverted
		`{"regions":[{"rect":[0,0,1,1],"weight":-2}],"k":3}`, // negative weight
	} {
		rec, _ := do(t, s.Handler(), "POST", "/v1/query", bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d", bad, rec.Code)
		}
	}
}

func TestPutAndDelete(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()

	// Create a new user via PUT.
	body := `[{"rect":[0.4,0.4,0.42,0.42],"weight":2}]`
	rec, obj := do(t, h, "PUT", "/v1/users/777", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT status %d: %v", rec.Code, obj)
	}
	// The new user is immediately searchable.
	qbody := `{"regions":[{"rect":[0.4,0.4,0.42,0.42],"weight":1}],"k":1}`
	_, list := doList(t, h, "POST", "/v1/query", qbody)
	if len(list) == 0 || int(list[0]["id"].(float64)) != 777 {
		t.Fatalf("new user not searchable: %v", list)
	}
	// Delete tombstones it.
	rec, _ = do(t, h, "DELETE", "/v1/users/777", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE status %d", rec.Code)
	}
	_, list = doList(t, h, "POST", "/v1/query", qbody)
	for _, r := range list {
		if int(r["id"].(float64)) == 777 {
			t.Error("deleted user still searchable")
		}
	}
	// Deleting again 404s.
	rec, _ = do(t, h, "DELETE", "/v1/users/777", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("double delete status %d", rec.Code)
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	done := make(chan struct{})
	errs := make(chan string, 100)
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				switch i % 3 {
				case 0:
					rec, _ := do(t, h, "GET", "/v1/users/105/similar?k=3", "")
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("similar: %d", rec.Code)
					}
				case 1:
					id := 2000 + g*100 + i
					body := fmt.Sprintf(`[{"rect":[0.1,0.1,0.12,0.12],"weight":1}]`)
					rec, _ := do(t, h, "PUT", fmt.Sprintf("/v1/users/%d", id), body)
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("put: %d", rec.Code)
					}
				default:
					rec, _ := do(t, h, "GET", "/healthz", "")
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("health: %d", rec.Code)
					}
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// Every JSON body geoserve reads stops at maxJSONBody with a 413, and a
// router leg as large as georouter lets through — a 1 MiB /v1/topk body
// closed with the segment object the router appends — is still served.
func TestJSONBodyCap(t *testing.T) {
	s, _ := testServer(t)
	pad := strings.Repeat(" ", maxJSONBody)
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/query", `{"k":5,"regions":[` + pad + `]}`},
		{"PUT", "/v1/users/7", `[` + pad + `]`},
	} {
		if rec, _ := do(t, s.Handler(), c.method, c.path, c.body); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s, %d bytes: status %d, want 413", c.method, c.path, len(c.body), rec.Code)
		}
	}

	shards := make([]string, 64)
	for i := range shards {
		shards[i] = fmt.Sprintf("shard-%02d", i)
	}
	seg, err := json.Marshal(segmentJSON{Shards: shards, R: 2, Members: shards[:1]})
	if err != nil {
		t.Fatal(err)
	}
	const head, tail = `{"regions":[{"rect":[0.1,0.1,0.5,0.5],"weight":1}`, `],"k":5}`
	topk := head + strings.Repeat(" ", 1<<20-len(head)-len(tail)) + tail
	leg := topk[:len(topk)-1] + `,"segment":` + string(seg) + `}`
	if rec, _ := do(t, s.Handler(), "POST", "/v1/query", leg); rec.Code != http.StatusOK {
		t.Fatalf("a %d-byte leg: status %d: %s", len(leg), rec.Code, rec.Body)
	}
}
