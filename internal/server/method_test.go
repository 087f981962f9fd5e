package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// TestQueryMethodSelection: method=sketch (a name of the default
// engine) must answer identically to the default on both query
// routes, and unknown methods must be rejected, not silently
// defaulted.
func TestQueryMethodSelection(t *testing.T) {
	s, db := testServer(t)
	if !db.SketchesEnabled() {
		t.Fatal("New did not enable the sketch layer")
	}

	i, _ := db.IndexOf(100)
	regs := fromFootprint(db.Footprints[i])

	// POST /v1/query with and without "method": identical results.
	for _, method := range []string{"", "user-centric", "sketch"} {
		body, _ := json.Marshal(queryJSON{Regions: regs, K: 5, Method: method})
		rec, list := doList(t, s.Handler(), "POST", "/v1/query", string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("method %q: status %d: %s", method, rec.Code, rec.Body.String())
		}
		if method == "" {
			continue
		}
		base, _ := json.Marshal(queryJSON{Regions: regs, K: 5})
		_, want := doList(t, s.Handler(), "POST", "/v1/query", string(base))
		if !reflect.DeepEqual(list, want) {
			t.Fatalf("method %q diverged from default\ngot:  %v\nwant: %v", method, list, want)
		}
	}

	// GET /v1/users/{id}/similar?method=sketch: identical results.
	_, def := doList(t, s.Handler(), "GET", "/v1/users/100/similar?k=5", "")
	rec, sk := doList(t, s.Handler(), "GET", "/v1/users/100/similar?k=5&method=sketch", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("similar?method=sketch: status %d: %s", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(sk, def) {
		t.Fatalf("similar sketch diverged\ngot:  %v\nwant: %v", sk, def)
	}

	// Unknown methods are 400s on both routes.
	body, _ := json.Marshal(queryJSON{Regions: regs, K: 5, Method: "quantum"})
	if rec, _ := do(t, s.Handler(), "POST", "/v1/query", string(body)); rec.Code != http.StatusBadRequest {
		t.Errorf("POST unknown method: status %d", rec.Code)
	}
	if rec, _ := do(t, s.Handler(), "GET", "/v1/users/100/similar?method=quantum", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("GET unknown method: status %d", rec.Code)
	}
}

// TestSketchMethodAfterMutations: PUT/DELETE maintain the sketch layer
// (via store's dynamic paths), so sketch queries stay correct after
// writes without any rebuild.
func TestSketchMethodAfterMutations(t *testing.T) {
	s, db := testServer(t)
	i, _ := db.IndexOf(101)
	regs := fromFootprint(db.Footprints[i])
	regsBody, _ := json.Marshal(regs)

	// Upsert a new user with user 101's exact footprint.
	if rec, _ := do(t, s.Handler(), "PUT", "/v1/users/999", string(regsBody)); rec.Code != http.StatusOK {
		t.Fatalf("PUT: status %d", rec.Code)
	}
	// Delete user 102 to exercise the tombstone path.
	if rec, _ := do(t, s.Handler(), "DELETE", "/v1/users/102", ""); rec.Code != http.StatusOK {
		t.Fatalf("DELETE: status %d", rec.Code)
	}

	for _, method := range []string{"user-centric", "sketch"} {
		body := fmt.Sprintf(`{"regions":%s,"k":10,"method":%q}`, regsBody, method)
		rec, list := doList(t, s.Handler(), "POST", "/v1/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", method, rec.Code)
		}
		seen := map[int]bool{}
		for _, r := range list {
			seen[int(r["id"].(float64))] = true
		}
		if !seen[101] || !seen[999] {
			t.Fatalf("%s: expected users 101 and 999 in %v", method, list)
		}
		if seen[102] {
			t.Fatalf("%s: deleted user 102 still returned: %v", method, list)
		}
	}
}
