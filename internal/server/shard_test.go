package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// /healthz must carry the shard identity and the epoch it read when
// the instance runs as part of a sharded deployment — the router's
// shard-map cross-check and epoch logging both read them.
func TestHealthShardFields(t *testing.T) {
	db := testCorpus(t)
	s := NewWithOptions(db, Options{ShardID: "shard-7"})
	rec, obj := do(t, s.Handler(), "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if obj["shard_id"] != "shard-7" {
		t.Errorf("shard_id = %v, want shard-7", obj["shard_id"])
	}
	seq, ok := obj["epoch_seq"].(float64)
	if !ok || seq < 1 {
		t.Errorf("epoch_seq = %v, want >= 1", obj["epoch_seq"])
	}

	// A mutation publishes a new epoch, and the flat field tracks it.
	body := `[{"rect":[0.1,0.1,0.2,0.2],"weight":2}]`
	if rec, _ := do(t, s.Handler(), "PUT", "/v1/users/4242", body); rec.Code != http.StatusOK {
		t.Fatalf("PUT status %d", rec.Code)
	}
	_, obj2 := do(t, s.Handler(), "GET", "/healthz", "")
	if obj2["epoch_seq"].(float64) <= seq {
		t.Errorf("epoch_seq did not advance after a publish: %v -> %v", seq, obj2["epoch_seq"])
	}

	// Single-node deployments (no -shard-id) must not grow a
	// shard_id field clients could misread as topology.
	s2, _ := testServer(t)
	_, solo := do(t, s2.Handler(), "GET", "/healthz", "")
	if _, present := solo["shard_id"]; present {
		t.Errorf("shard_id present without Options.ShardID: %v", solo["shard_id"])
	}
	if _, ok := solo["epoch_seq"].(float64); !ok {
		t.Errorf("epoch_seq missing on single-node healthz: %v", solo)
	}
}

// All four Section 6 methods (and sketch) are HTTP-selectable and
// return identical rankings on the same corpus — the per-node half of
// the cross-shard determinism story.
func TestAllMethodsSelectableOverHTTP(t *testing.T) {
	s, _ := testServer(t)
	regs := `[{"rect":[0.30,0.30,0.45,0.45],"weight":1},{"rect":[0.7,0.7,0.8,0.8],"weight":2}]`
	var want string
	for _, method := range []string{"user-centric", "linear", "iterative", "batch", "sketch"} {
		body := fmt.Sprintf(`{"regions":%s,"k":7,"method":%q}`, regs, method)
		rec, list := doList(t, s.Handler(), "POST", "/v1/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("method %q: status %d: %s", method, rec.Code, rec.Body.String())
		}
		got, err := json.Marshal(list)
		if err != nil {
			t.Fatal(err)
		}
		if method == "user-centric" {
			want = string(got)
			if len(list) == 0 {
				t.Fatal("query returned no results; corpus/query mismatch")
			}
			continue
		}
		if string(got) != want {
			t.Errorf("method %q diverged from user-centric\ngot:  %s\nwant: %s", method, got, want)
		}
	}
}
