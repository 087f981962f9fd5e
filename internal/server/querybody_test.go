package server

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// sameQueryDecode fails unless the handler's decoder and json.Decoder
// — the decoder it replaced, and the oracle — agree on body: accept or
// reject, the error text, and every field, each float bit for bit.
func sameQueryDecode(t *testing.T, body []byte) {
	t.Helper()
	var want queryJSON
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	sc := new(queryScratch)
	for round := 0; round < 2; round++ { // a fresh scratch, then a used one
		var got queryJSON
		gerr := sc.decodeQuery(bytes.NewReader(body), &got)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("error %v, json.Decoder %v\nbody %q", gerr, werr, body)
		}
		if werr != nil {
			continue
		}
		if got.K != want.K || got.Method != want.Method || !reflect.DeepEqual(got.Segment, want.Segment) || len(got.Regions) != len(want.Regions) {
			t.Fatalf("decoded %+v, json.Decoder %+v\nbody %q", got, want, body)
		}
		for i, g := range got.Regions {
			w := want.Regions[i]
			for j := range g.Rect {
				if math.Float64bits(g.Rect[j]) != math.Float64bits(w.Rect[j]) {
					t.Fatalf("region %d rect %v, json.Decoder %v\nbody %q", i, g.Rect, w.Rect, body)
				}
			}
			if math.Float64bits(g.Weight) != math.Float64bits(w.Weight) {
				t.Fatalf("region %d weight %v, json.Decoder %v\nbody %q", i, g.Weight, w.Weight, body)
			}
		}
	}
}

// FuzzQueryBody holds the direct /v1/query decoder to encoding/json on
// arbitrary bytes. The committed corpus (testdata/fuzz/FuzzQueryBody)
// names the boundaries between the two: key order, case, escapes and
// repeats, whitespace, rects of the wrong length, numbers that are
// almost JSON or out of range, null, trailing bytes, and the router's
// segment legs — prefix members, vnodes left out, a repeated or null
// segment, an empty method, shard IDs with an escape or non-ASCII bytes.
func FuzzQueryBody(f *testing.F) {
	f.Add([]byte(`{"k":5,"regions":[{"rect":[0.1,0.2,0.3,0.4],"weight":2}]}`))
	f.Fuzz(sameQueryDecode)
}

// Bodies that must take the direct path, and bodies it must leave to
// encoding/json — whether it then accepts them or not.
func TestDecodeQueryPlain(t *testing.T) {
	for _, body := range []string{
		`{"k":5,"regions":[{"rect":[0.1,0.2,0.3,0.4],"weight":2}]}`,
		`{"regions":[{"weight":1.5,"rect":[-1e-3,0,1E2,2.5e+1]},{"rect":[0,0,1,1]}],"k":1000}`,
		" \t\r\n{ \"k\" : 3 , \"regions\" : [ { \"rect\" : [ 0 , -0 , 1 , 1 ] , \"weight\" : 0 } ] } \n",
		`{"k":5,"regions":[]}`,
		`{"k":5}`,
		`{"regions":[{}]}`,
		`{}`,
		`{"regions":[{"rect":[0,0,1,1]}],"k":3,"method":"linear"}`,
		`{"regions":[{"rect":[0,0,1,1]}],"k":3,"segment":{"shards":["a","b"],"r":2,"members":["a"]}}`,
		`{"k":3,"method":"","segment":{"members":[ "b" ],"r":2,"vnodes":-0,"shards":["a", "b"]},"regions":[]}`,
		`{"k":3,"segment":{"shards":[],"members":[]}}`,
		`{"k":3,"segment":{}}`,
		`{"k":3,"method":"<&> ~"}`,
	} {
		var q queryJSON
		if !decodeQueryPlain([]byte(body), &q) {
			t.Errorf("%q left to encoding/json", body)
		}
		sameQueryDecode(t, []byte(body))
	}
	for _, body := range []string{
		`{"K":5,"regions":[]}`,
		`{"k":5,"k":6,"regions":[]}`,
		`{"k":5,"regions":[{"rect":[0,0,1,1],"rect":[0,0,2,2]}]}`,
		`{"k":5,"regions":[{"rect":[0,0,1]}]}`,
		`{"k":5,"regions":[{"rect":[0,0,1,1,9]}]}`,
		`{"k":5.0,"regions":[]}`,
		`{"k":1e1,"regions":[]}`,
		`{"k":99999999999999999999,"regions":[]}`,
		`{"k":05,"regions":[]}`,
		`{"k":5,"regions":[{"rect":[.5,0,1,1]}]}`,
		`{"k":5,"regions":[{"rect":[1e999,0,1,1]}]}`,
		`{"k":null,"regions":null}`,
		`{"k":5,"regions":[null]}`,
		`{"k":5,"regions":[]} trailing`,
		`{"k":5,"regions":[],}`,
		`{"k":5,"regions":[{"rect":[0,0,1,1]},]}`,
		`{"k":5,"regions":[{"rect":[0,0,1,1],"weight":2,"extra":1}]}`,
		`{"k":3,"method":"linear","method":"batch"}`,
		`{"k":3,"method":null}`,
		`{"k":3,"method":"line\u0061r"}`,
		`{"k":3,"method":"lin\near"}`,
		"{\"k\":3,\"method\":\"s\u00e9\"}",
		"{\"k\":3,\"method\":\"a\x7f\"}",
		`{"k":3,"Method":"linear"}`,
		`{"k":3,"segment":null}`,
		`{"k":3,"segment":{"r":2},"segment":{"r":3}}`,
		`{"k":3,"segment":{"r":2,"r":3}}`,
		`{"k":3,"segment":{"shards":null}}`,
		`{"k":3,"segment":{"shards":["a",null]}}`,
		`{"k":3,"segment":{"shards":["a",]}}`,
		`{"k":3,"segment":{"shards":["\u0061"]}}`,
		"{\"k\":3,\"segment\":{\"members\":[\"sh\xc3\xa4rd\"]}}",
		`{"k":3,"segment":{"r":2.0}}`,
		`{"k":3,"segment":{"vnodes":1e2}}`,
		`{"k":3,"segment":{"R":2}}`,
		`{"k":3,"segment":{"r":2,"extra":1}}`,
		`{"k":3,"segment":[]}`,
		`[]`,
		``,
		`{"k":5,"regions":[`,
	} {
		var q queryJSON
		if decodeQueryPlain([]byte(body), &q) {
			t.Errorf("%q decoded directly to %+v", body, q)
		}
		sameQueryDecode(t, []byte(body))
	}
}

// The direct path costs a query body no allocation once its scratch is
// warm — where json.Decoder pays for its state, its reflection and the
// region slice on every body. A router's segment leg
// (testdata/leg-body.json, the body a router sends shard-0 of a
// four-shard R = 2 cluster) allocates its regions nothing either: its
// only allocations are the segment itself, its two lists and their
// strings.
func TestDecodeQueryAllocs(t *testing.T) {
	leg, err := os.ReadFile("testdata/leg-body.json")
	if err != nil {
		t.Fatal(err)
	}
	sc := new(queryScratch)
	var q queryJSON
	if err := sc.decodeQuery(bytes.NewReader(leg), &q); err != nil || q.Segment == nil || len(q.Segment.Shards) != 4 || len(q.Regions) != 17 {
		t.Fatalf("leg body: %+v, %v", q, err)
	}
	sameQueryDecode(t, leg)
	// The segment, one string per shard ID and member, and the arrays
	// append grows the lists through: 1, 2 and 4 shard IDs, 1 member.
	segment := 1 + len(q.Segment.Shards) + len(q.Segment.Members) + 3 + 1
	rd := bytes.NewReader(leg)
	if avg := testing.AllocsPerRun(100, func() {
		rd.Reset(leg)
		if err := sc.decodeQuery(rd, &q); err != nil || q.Segment == nil {
			t.Fatalf("leg body: %v", err)
		}
	}); avg != float64(segment) {
		t.Errorf("decodeQuery: %v allocations per leg body, want the segment's %d", avg, segment)
	}

	var b strings.Builder
	b.WriteString(`{"k":5,"regions":[`)
	for i := 0; i < 17; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"rect":[0.41234567890123,0.5123456789012,0.4223456789012,0.5323456789012],"weight":1}`)
	}
	b.WriteString(`]}`)
	body := []byte(b.String())
	direct := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		if err := sc.decodeQuery(rd, &q); err != nil || len(q.Regions) != 17 {
			t.Fatalf("%d regions, %v", len(q.Regions), err)
		}
	})
	viaJSON := testing.AllocsPerRun(100, func() {
		var q queryJSON
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&q); err != nil {
			t.Fatal(err)
		}
	})
	if direct != 0 {
		t.Errorf("decodeQuery: %v allocations per body, want 0 (json.Decoder: %v)", direct, viaJSON)
	}
	if viaJSON <= direct {
		t.Errorf("json.Decoder allocates %v times, the direct path %v: nothing to win", viaJSON, direct)
	}
}

// BenchmarkLegCodec/shard-decode times the shard's half of a segment
// leg's wire path: decoding the recorded router leg body with a warm
// scratch (shard-decode-json: the json.Decoder fallback on the same
// body, for comparison). The router's halves (leg-body assembly, answer
// decoding) are BenchmarkLegCodec in internal/router.
func BenchmarkLegCodec(b *testing.B) {
	leg, err := os.ReadFile("testdata/leg-body.json")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shard-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(leg)))
		sc := new(queryScratch)
		rd := bytes.NewReader(leg)
		var q queryJSON
		for i := 0; i < b.N; i++ {
			rd.Reset(leg)
			if err := sc.decodeQuery(rd, &q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shard-decode-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(leg)))
		for i := 0; i < b.N; i++ {
			var q queryJSON
			if err := json.NewDecoder(bytes.NewReader(leg)).Decode(&q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
