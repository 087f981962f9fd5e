package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"geofootprint/internal/search"
)

// sameLegAnswer fails unless the router's answer decoder and
// json.Decoder — the decoder it replaced, and the oracle — agree on b:
// accept or reject, the error text, and every entry, scores bit for bit.
func sameLegAnswer(t *testing.T, b []byte) {
	t.Helper()
	var list []shardResultJSON
	werr := json.NewDecoder(bytes.NewReader(b)).Decode(&list)
	got, gerr := decodeLegAnswer(b)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("error %v, json.Decoder %v\nanswer %q", gerr, werr, b)
	}
	if werr != nil {
		return
	}
	if len(got) != len(list) {
		t.Fatalf("%d entries, json.Decoder %d\nanswer %q", len(got), len(list), b)
	}
	for i, e := range list {
		if got[i].ID != e.ID || math.Float64bits(got[i].Score) != math.Float64bits(e.Similarity) {
			t.Fatalf("entry %d: %+v, json.Decoder %+v\nanswer %q", i, got[i], e, b)
		}
	}
}

// FuzzLegAnswer holds the router's direct leg-answer decoder to
// encoding/json on arbitrary bytes. The committed corpus
// (testdata/fuzz/FuzzLegAnswer) names the boundaries between the two:
// exponent floats, -0, ids beyond the int range, the empty list,
// whitespace, key order and trailing bytes.
func FuzzLegAnswer(f *testing.F) {
	f.Add([]byte(`[{"id":7,"similarity":0.5},{"id":3,"similarity":0.25}]` + "\n"))
	f.Fuzz(sameLegAnswer)
}

// Answers that must take the direct path, and answers it must leave to
// encoding/json — whether it then accepts them or not.
func TestDecodeAnswerPlain(t *testing.T) {
	for _, b := range []string{
		`[]`,
		"[]\n",
		`[{"id":7,"similarity":0.5}]`,
		"[{\"id\":7,\"similarity\":0.5},{\"id\":-3,\"similarity\":1e-7}]\n",
		`[{"id":-0,"similarity":-0}]`,
		`[{"id":9223372036854775807,"similarity":2.5E+3}]`,
		"[{\"id\":1,\"similarity\":1}] \t\r\n",
	} {
		if _, ok := decodeAnswerPlain([]byte(b), nil); !ok {
			t.Errorf("%q left to encoding/json", b)
		}
		sameLegAnswer(t, []byte(b))
	}
	for _, b := range []string{
		``,
		`null`,
		`[ ]`,
		` []`,
		`[{"similarity":0.5,"id":7}]`,
		`[{"id":7, "similarity":0.5}]`,
		`[{"id":7,"similarity":0.5,"extra":1}]`,
		`[{"ID":7,"similarity":0.5}]`,
		`[{"id":7.0,"similarity":0.5}]`,
		`[{"id":1e2,"similarity":0.5}]`,
		`[{"id":9223372036854775808,"similarity":0.5}]`,
		`[{"id":7,"similarity":1e999}]`,
		`[{"id":7,"similarity":.5}]`,
		`[{"id":7,"similarity":"0.5"}]`,
		`[{"id":7,"similarity":0.5},]`,
		`[{"id":7,"similarity":0.5}] trailing`,
		`[{"id":7,"similarity":0.5}][]`,
		`[{"id":7,"similarity":0.5}`,
		`[null]`,
		`{"error":"bad"}`,
	} {
		if _, ok := decodeAnswerPlain([]byte(b), nil); ok {
			t.Errorf("%q decoded directly", b)
		}
		sameLegAnswer(t, []byte(b))
	}
}

// fiveResults is a leg answer as a shard writes it for k = 5.
const fiveResults = `[{"id":4211,"similarity":0.8345678901234567},{"id":17,"similarity":0.5},` +
	`{"id":9000,"similarity":0.31234567890123456},{"id":12,"similarity":0.125},{"id":13,"similarity":1.5e-7}]` + "\n"

// Reading and decoding a five-result leg answer into a warm buffer
// allocates the result list and nothing else.
func TestLegAnswerAllocs(t *testing.T) {
	body := []byte(fiveResults)
	rd := bytes.NewReader(body)
	var buf []byte
	avg := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		var part []search.Result
		var err error
		if part, buf, err = readLegAnswer(rd, 5, buf[:0]); err != nil || len(part) != 5 {
			t.Fatalf("%d results, %v", len(part), err)
		}
	})
	if avg != 1 {
		t.Errorf("readLegAnswer: %v allocations per answer, want 1 (the result list)", avg)
	}
}

// The router writes exactly the leg body the shard's allocation pin and
// BenchmarkLegCodec decode (internal/server/testdata/leg-body.json): the
// query's regions as they came, k, and the segment of shard-0's leg in a
// four-shard R = 2 cluster.
func TestLegBodyRecorded(t *testing.T) {
	want, err := os.ReadFile("../server/testdata/leg-body.json")
	if err != nil {
		t.Fatal(err)
	}
	var q Query
	if err := json.Unmarshal(want, &q); err != nil {
		t.Fatal(err)
	}
	_, m := newFakeShards(t, 4, nil)
	r := newTestRouter(t, m, func(c *Config) { c.Replicas = 2 })
	if got := r.segRoots[0].body(legPrefix(q)); !bytes.Equal(got, want) {
		t.Fatalf("leg body\n%s\nrecorded\n%s", got, want)
	}
}

// A method that cannot be written between quotes as it is goes through
// json.Marshal; the shard reads back the method the client sent.
func TestLegPrefixMethod(t *testing.T) {
	for _, method := range []string{"", "linear", "user-centric", `a"b`, `a\b`, "é", "a\x00", "<&>"} {
		q := testQuery(5)
		q.Method = method
		var back struct {
			Regions json.RawMessage `json:"regions"`
			K       int             `json:"k"`
			Method  string          `json:"method"`
		}
		body := append(legPrefix(q), '}')
		if err := json.Unmarshal(body, &back); err != nil || back.Method != method || back.K != 5 || !bytes.Equal(back.Regions, q.Regions) {
			t.Fatalf("method %q: body %s reads back as %+v, %v", method, body, back, err)
		}
	}
}

// A shard streaming an answer far beyond what k justifies fails its leg
// — the router stops reading at maxLegAnswer(k) instead of buffering it
// — and the leg fails over like any other: explicitly partial without
// replicas, exact with them.
func TestTopKOversizedAnswerFailsOver(t *testing.T) {
	var liar atomic.Value // the URL of the shard that streams
	liar.Store("")
	handler := func(w http.ResponseWriter, r *http.Request) {
		if "http://"+r.Host != liar.Load().(string) {
			io.WriteString(w, `[{"id":7,"similarity":0.5}]`)
			return
		}
		io.WriteString(w, "[")
		for i := 0; i < 40000; i++ { // ≈ 1 MB, valid JSON: only its size is wrong
			fmt.Fprintf(w, `{"id":%d,"similarity":0.9},`, 1000+i)
		}
		io.WriteString(w, `{"id":0,"similarity":0.9}]`)
	}
	noLiar := func(t *testing.T, res *TopKResult) {
		t.Helper()
		for _, e := range res.Results {
			if e.ID != 7 {
				t.Fatalf("the oversized answer was merged: %+v", res.Results)
			}
		}
	}

	shards, m := newFakeShards(t, 3, handler)
	liar.Store(shards[1].srv.URL)
	r := newTestRouter(t, m, nil)
	r.CheckHealth(context.Background())
	res, err := r.TopK(context.Background(), testQuery(5))
	if err != nil || !res.Partial || strings.Join(res.Missing, ",") != "shard-1" || res.Queried != 2 {
		t.Fatalf("R=1: res=%+v err=%v, want partial with shard-1 missing", res, err)
	}
	noLiar(t, res)

	shards, m = newFakeShards(t, 4, handler)
	liar.Store(shards[1].srv.URL)
	r = newTestRouter(t, m, func(c *Config) { c.Replicas = 2; c.DisableBreaker = true })
	r.CheckHealth(context.Background())
	led := 0
	for _, tuple := range r.ring.Segments(2) {
		if tuple[0] == 1 {
			led++
		}
	}
	res, err = r.TopK(context.Background(), testQuery(5))
	if err != nil || res.Partial || res.Queried != len(r.ring.Segments(2)) || res.FailedOver != led {
		t.Fatalf("R=2: res=%+v err=%v, want complete with %d segments failed over", res, err, led)
	}
	noLiar(t, res)
}

// BenchmarkLegCodec times the router's halves of a segment leg's wire
// path: assembling the four leg bodies of a four-shard R = 2 query, and
// reading and decoding a five-result answer. For comparison,
// body-assembly-marshal builds the same bodies from a json.Marshal of
// the query, and answer-decode-json runs the json.Decoder fallback on
// the same answer. The shard's half is BenchmarkLegCodec in
// internal/server.
func BenchmarkLegCodec(b *testing.B) {
	leg, err := os.ReadFile("../server/testdata/leg-body.json")
	if err != nil {
		b.Fatal(err)
	}
	var q Query
	if err := json.Unmarshal(leg, &q); err != nil {
		b.Fatal(err)
	}
	_, m := newFakeShards(b, 4, nil)
	r := newTestRouter(b, m, func(c *Config) { c.Replicas = 2 })
	b.Run("body-assembly", func(b *testing.B) {
		b.ReportAllocs()
		size := 0
		for i := 0; i < b.N; i++ {
			prefix := legPrefix(q)
			for _, n := range r.segRoots {
				size += len(n.body(prefix))
			}
		}
		b.SetBytes(int64(size / b.N))
	})
	b.Run("body-assembly-marshal", func(b *testing.B) {
		b.ReportAllocs()
		size := 0
		for i := 0; i < b.N; i++ {
			query, err := json.Marshal(struct {
				Regions json.RawMessage `json:"regions"`
				K       int             `json:"k"`
				Method  string          `json:"method,omitempty"`
			}{q.Regions, q.K, q.Method})
			if err != nil {
				b.Fatal(err)
			}
			for _, n := range r.segRoots {
				size += len(n.body(query[:len(query)-1]))
			}
		}
		b.SetBytes(int64(size / b.N))
	})
	body := []byte(fiveResults)
	b.Run("answer-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		rd := bytes.NewReader(body)
		var buf []byte
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			if _, buf, err = readLegAnswer(rd, 5, buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("answer-decode-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var list []shardResultJSON
			if err := decodeJSONBody(bytes.NewReader(body), &list); err != nil {
				b.Fatal(err)
			}
		}
	})
}
