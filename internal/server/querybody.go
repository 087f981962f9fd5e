package server

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"geofootprint/internal/jsonlex"
)

// This file decodes the POST /v1/query body. Every body means what
// encoding/json says it means: the shape a client writes —
// {"k":…,"regions":[{"rect":[…],"weight":…},…]} — is decoded directly
// (decodeQueryPlain), without reflection, and any other body, valid or
// not, goes to json.Decoder, so acceptance, values and error text are
// encoding/json's (FuzzQueryBody holds the two together). A router's
// segment leg, which carries "method" and "segment", is such another
// body.

// queryScratch is one request's decoding memory: the body and the
// region list it decodes to. Nothing the handler keeps past the
// request points into either (toFootprint copies the regions out).
type queryScratch struct {
	body    bytes.Buffer
	regions []regionJSON
}

var queryScratches = sync.Pool{New: func() any { return new(queryScratch) }}

// maxPooledQuery caps what a pooled scratch keeps: one huge body must
// not pin its buffers for the life of the process.
const maxPooledQuery = 1 << 20

// decodeQuery reads a /v1/query body from r into q, whose Regions alias
// sc until sc goes back to the pool.
func (sc *queryScratch) decodeQuery(r io.Reader, q *queryJSON) error {
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(r); err != nil {
		return err
	}
	b := sc.body.Bytes()
	*q = queryJSON{Regions: sc.regions[:0]}
	if decodeQueryPlain(b, q) {
		sc.regions = q.Regions[:0]
		return nil
	}
	*q = queryJSON{}
	return json.NewDecoder(bytes.NewReader(b)).Decode(q)
}

// release returns sc to the pool unless a huge body grew it.
func (sc *queryScratch) release() {
	if sc.body.Cap() <= maxPooledQuery && cap(sc.regions) <= maxPooledQuery/40 { // 40 bytes a region
		queryScratches.Put(sc)
	}
}

// decodeQueryPlain decodes the one body shape a client writes — an
// object whose keys are "k" and "regions" (lower case, unescaped, any
// order, each at most once), k a JSON integer, regions an array of
// objects whose keys are "rect" and "weight" (each at most once), rect
// an array of exactly four JSON numbers and weight a JSON number,
// optional JSON whitespace, nothing after the object but whitespace —
// appending the regions to q.Regions. It reports false for every other
// body, well-formed or not, and for a number its field cannot hold: the
// caller then asks encoding/json, which accepts or rejects the body in
// its own words. Numbers are converted by the strconv calls
// encoding/json makes, so an accepted body yields the values
// json.Decoder would; a key left out leaves its field zero, as there.
func decodeQueryPlain(b []byte, q *queryJSON) bool {
	i := jsonlex.SkipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	var seenK, seenRegions, more, ok bool
	for i, more, ok = openObject(b, i+1); more; i, more, ok = nextMember(b, i) {
		var name []byte
		if name, i, ok = memberKey(b, i); !ok {
			return false
		}
		switch {
		case string(name) == "k" && !seenK:
			seenK = true
			end := jsonlex.NumberEnd(b, i)
			if end < 0 {
				return false
			}
			// Does not retain its argument: the string stays on the stack.
			k, err := strconv.ParseInt(string(b[i:end]), 10, 64)
			if err != nil || int64(int(k)) != k {
				return false
			}
			q.K, i = int(k), end
		case string(name) == "regions" && !seenRegions:
			seenRegions = true
			if i, ok = decodeRegions(b, i, q); !ok {
				return false
			}
		default:
			return false
		}
	}
	return ok && jsonlex.SkipSpace(b, i) == len(b)
}

// decodeRegions decodes the array of region objects starting at b[i],
// appending them to q.Regions, and returns the index past it.
func decodeRegions(b []byte, i int, q *queryJSON) (int, bool) {
	if i == len(b) || b[i] != '[' {
		return i, false
	}
	if i = jsonlex.SkipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for {
		if i == len(b) || b[i] != '{' {
			return i, false
		}
		var r regionJSON
		var seenRect, seenWeight, more, ok bool
		for i, more, ok = openObject(b, i+1); more; i, more, ok = nextMember(b, i) {
			var name []byte
			if name, i, ok = memberKey(b, i); !ok {
				return i, false
			}
			switch {
			case string(name) == "rect" && !seenRect:
				seenRect = true
				i, ok = decodeRect(b, i, &r.Rect)
			case string(name) == "weight" && !seenWeight:
				seenWeight = true
				i, ok = decodeNumber(b, i, &r.Weight)
			default:
				ok = false
			}
			if !ok {
				return i, false
			}
		}
		if !ok {
			return i, false
		}
		q.Regions = append(q.Regions, r)
		i = jsonlex.SkipSpace(b, i)
		if i == len(b) {
			return i, false
		}
		if b[i] == ']' {
			return i + 1, true
		}
		if b[i] != ',' {
			return i, false
		}
		i = jsonlex.SkipSpace(b, i+1)
	}
}

// openObject starts an object whose '{' precedes b[i]: more reports a first
// member to read at the returned index; an empty object is consumed.
func openObject(b []byte, i int) (next int, more, ok bool) {
	if i = jsonlex.SkipSpace(b, i); i < len(b) && b[i] == '}' {
		return i + 1, false, true
	}
	return i, true, true
}

// nextMember reads what follows a member's value at b[i]: a ',' and another
// member (more), or the object's closing '}', consumed.
func nextMember(b []byte, i int) (next int, more, ok bool) {
	i = jsonlex.SkipSpace(b, i)
	switch {
	case i == len(b):
		return i, false, false
	case b[i] == ',':
		return jsonlex.SkipSpace(b, i+1), true, true
	case b[i] == '}':
		return i + 1, false, true
	}
	return i, false, false
}

// memberKey reads a member's plain key — a string without escapes, which every
// key decodeQueryPlain accepts is — and its ':', returning the index of
// the value.
func memberKey(b []byte, i int) (name []byte, value int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	end := bytes.IndexByte(b[i+1:], '"')
	if end < 0 {
		return nil, i, false
	}
	name = b[i+1 : i+1+end]
	if bytes.IndexByte(name, '\\') >= 0 {
		return nil, i, false
	}
	i = jsonlex.SkipSpace(b, i+2+end)
	if i == len(b) || b[i] != ':' {
		return nil, i, false
	}
	return name, jsonlex.SkipSpace(b, i+1), true
}

// decodeRect decodes an array of exactly four JSON numbers starting at b[i].
func decodeRect(b []byte, i int, dst *[4]float64) (int, bool) {
	if i == len(b) || b[i] != '[' {
		return i, false
	}
	for n := range dst {
		var ok bool
		if i, ok = decodeNumber(b, jsonlex.SkipSpace(b, i+1), &dst[n]); !ok {
			return i, false
		}
		i = jsonlex.SkipSpace(b, i)
		if i == len(b) || b[i] != ",,,]"[n] {
			return i, false
		}
	}
	return i + 1, true
}

// decodeNumber decodes the JSON number starting at b[i] into a float64 field.
func decodeNumber(b []byte, i int, dst *float64) (int, bool) {
	end := jsonlex.NumberEnd(b, i)
	if end < 0 {
		return i, false
	}
	// Does not retain its argument: the string stays on the stack.
	f, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil {
		return i, false
	}
	*dst = f
	return end, true
}
