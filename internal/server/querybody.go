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
// encoding/json says it means: the shapes a client and a router write —
// {"k":…,"regions":[{"rect":[…],"weight":…},…]}, and a router's segment
// leg, which adds "method" and "segment":{"shards","vnodes","r","members"}
// — are decoded directly (decodeQueryPlain), without reflection, and any
// other body, valid or not, goes to json.Decoder, so acceptance, values
// and error text are encoding/json's (FuzzQueryBody holds the two
// together).

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

// decodeQueryPlain decodes the body shapes a client and a router write —
// an object whose keys are among "k", "regions", "method" and "segment"
// (lower case, unescaped, any order, each at most once), k a JSON
// integer, regions an array of objects whose keys are "rect" and
// "weight" (each at most once), rect an array of exactly four JSON
// numbers and weight a JSON number, method a plain string
// (jsonlex.PlainStringEnd), segment an object as decodeSegment reads it,
// optional JSON whitespace, nothing after the object but whitespace —
// appending the regions to q.Regions. It reports false for every other
// body, well-formed or not, and for a number its field cannot hold: the
// caller then asks encoding/json, which accepts or rejects the body in
// its own words. Numbers are converted by the strconv calls
// encoding/json makes, so an accepted body yields the values
// json.Decoder would; a key left out leaves its field zero, as there.
//
//geo:hotpath
func decodeQueryPlain(b []byte, q *queryJSON) bool {
	i := jsonlex.SkipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	var seenK, seenRegions, seenMethod, seenSegment, more, ok bool
	for i, more, ok = openObject(b, i+1); more; i, more, ok = nextMember(b, i) {
		var name []byte
		if name, i, ok = memberKey(b, i); !ok {
			return false
		}
		switch {
		case string(name) == "k" && !seenK:
			seenK = true
			i, ok = decodeInt(b, i, &q.K)
		case string(name) == "regions" && !seenRegions:
			seenRegions = true
			i, ok = decodeRegions(b, i, q)
		case string(name) == "method" && !seenMethod:
			seenMethod = true
			var m []byte
			if m, i, ok = plainString(b, i); ok {
				q.Method = string(m)
			}
		case string(name) == "segment" && !seenSegment:
			seenSegment = true
			q.Segment, i, ok = decodeSegment(b, i)
		default:
			return false
		}
		if !ok {
			return false
		}
	}
	return ok && jsonlex.SkipSpace(b, i) == len(b)
}

// decodeSegment decodes the segment object starting at b[i]: keys among
// "shards", "vnodes", "r" and "members" (each at most once, any order),
// the two lists arrays of plain strings, the two counts JSON integers.
// A key left out leaves its field zero (a list nil), as json.Decoder
// does; an empty list decodes to an empty, non-nil slice, as there.
// The segment, its lists and their strings are the leg's only
// allocations.
func decodeSegment(b []byte, i int) (*segmentJSON, int, bool) {
	if i == len(b) || b[i] != '{' {
		return nil, i, false
	}
	seg := new(segmentJSON)
	var seenShards, seenVnodes, seenR, seenMembers, more, ok bool
	for i, more, ok = openObject(b, i+1); more; i, more, ok = nextMember(b, i) {
		var name []byte
		if name, i, ok = memberKey(b, i); !ok {
			return nil, i, false
		}
		switch {
		case string(name) == "shards" && !seenShards:
			seenShards = true
			seg.Shards, i, ok = decodeStrings(b, i)
		case string(name) == "members" && !seenMembers:
			seenMembers = true
			seg.Members, i, ok = decodeStrings(b, i)
		case string(name) == "vnodes" && !seenVnodes:
			seenVnodes = true
			i, ok = decodeInt(b, i, &seg.Vnodes)
		case string(name) == "r" && !seenR:
			seenR = true
			i, ok = decodeInt(b, i, &seg.R)
		default:
			ok = false
		}
		if !ok {
			return nil, i, false
		}
	}
	return seg, i, ok
}

// decodeStrings decodes the array of plain strings starting at b[i].
func decodeStrings(b []byte, i int) ([]string, int, bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	list := []string{} // json.Decoder's empty list is not nil
	if i = jsonlex.SkipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return list, i + 1, true
	}
	for {
		s, end, ok := plainString(b, i)
		if !ok {
			return nil, i, false
		}
		list = append(list, string(s))
		i = jsonlex.SkipSpace(b, end)
		switch {
		case i == len(b):
			return nil, i, false
		case b[i] == ']':
			return list, i + 1, true
		case b[i] != ',':
			return nil, i, false
		}
		i = jsonlex.SkipSpace(b, i+1)
	}
}

// plainString returns the contents of the plain JSON string starting at
// b[i] and the index past it.
func plainString(b []byte, i int) (s []byte, end int, ok bool) {
	if end = jsonlex.PlainStringEnd(b, i); end < 0 {
		return nil, i, false
	}
	return b[i+1 : end-1], end, true
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

// memberKey reads a member's key — a plain string, which every key
// decodeQueryPlain accepts is — and its ':', returning the index of the
// value.
func memberKey(b []byte, i int) (name []byte, value int, ok bool) {
	if name, i, ok = plainString(b, i); !ok {
		return nil, i, false
	}
	if i = jsonlex.SkipSpace(b, i); i == len(b) || b[i] != ':' {
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

// decodeInt decodes the JSON integer starting at b[i] into an int field.
func decodeInt(b []byte, i int, dst *int) (int, bool) {
	end := jsonlex.NumberEnd(b, i)
	if end < 0 {
		return i, false
	}
	// Does not retain its argument: the string stays on the stack.
	n, err := strconv.ParseInt(string(b[i:end]), 10, 64)
	if err != nil || int64(int(n)) != n {
		return i, false
	}
	*dst = int(n)
	return end, true
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
