package server

import (
	"bytes"
	"encoding/json"
	"math"
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
// segment legs.
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
		`{"regions":[{"rect":[0,0,1,1]}],"k":3,"method":"linear"}`,
		`{"regions":[{"rect":[0,0,1,1]}],"k":3,"segment":{"shards":["a","b"],"r":2,"members":["a"]}}`,
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
// region slice on every body.
func TestDecodeQueryAllocs(t *testing.T) {
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
	rd := bytes.NewReader(body)
	sc := new(queryScratch)
	var q queryJSON
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
