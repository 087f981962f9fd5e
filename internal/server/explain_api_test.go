package server

import (
	"math"
	"net/http"
	"testing"

	"geofootprint/internal/core"
)

func TestExplainEndpoint(t *testing.T) {
	s, db := testServer(t)
	h := s.Handler()

	rec, obj := do(t, h, "GET", "/v1/explain?a=100&b=100", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, obj)
	}
	if sim := obj["similarity"].(float64); sim < 1-1e-9 {
		t.Errorf("self-explanation similarity %v", sim)
	}
	if len(obj["contributions"].([]interface{})) == 0 {
		t.Error("no contributions for self pair")
	}
	// Consistent with the library for a non-trivial pair.
	rec, obj = do(t, h, "GET", "/v1/explain?a=100&b=101&pairs=2", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	ia, _ := db.IndexOf(100)
	ib, _ := db.IndexOf(101)
	want := core.SimilarityJoin(db.Footprints[ia], db.Footprints[ib], db.Norm(ia), db.Norm(ib))
	if got := obj["similarity"].(float64); math.Abs(got-want) > 1e-9 {
		t.Errorf("similarity %v, want %v", got, want)
	}
	if n := len(obj["contributions"].([]interface{})); n > 2 {
		t.Errorf("pairs not truncated: %d", n)
	}
	// Errors.
	for _, bad := range []string{"?a=100", "?a=100&b=zzz", "?a=100&b=101&pairs=0", "?a=100&b=99999"} {
		rec, _ := do(t, h, "GET", "/v1/explain"+bad, "")
		if rec.Code == http.StatusOK {
			t.Errorf("%s accepted", bad)
		}
	}
}
