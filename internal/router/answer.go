package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"

	"geofootprint/internal/jsonlex"
	"geofootprint/internal/search"
)

// This file reads a shard's answer to a leg: the bare result list its
// /v1/query writes. The answer is read whole, up to a size its k
// justifies, and decoded directly when it has the exact shape the
// shard's encoder writes; any other answer goes to json.Decoder, so
// acceptance, values and error text are encoding/json's (FuzzLegAnswer
// holds the two together).

// shardResultJSON mirrors the shard's /v1/query response entry.
type shardResultJSON struct {
	ID         int     `json:"id"`
	Similarity float64 `json:"similarity"`
}

// maxLegAnswer bounds the answer the router reads for a leg asking k
// results. A shard writes at most k entries, each at most 67 bytes:
// `{"id":` and `,"similarity":` (20), an int (≤ 20 characters), a
// float64 as encoding/json formats it (≤ 25) and `},`. Twice that per
// entry plus 4 KiB is slack enough for any encoder; an answer beyond it
// comes from a misbehaving shard, and reading it whole would let that
// shard make the router buffer without limit.
func maxLegAnswer(k int) int { return 4<<10 + 128*k }

// answerBufs recycles the buffers leg answers are read into.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// readLegAnswer reads a leg answer to a query asking k results into buf
// and decodes it, returning the results and buf, grown if it had to be.
// An answer longer than maxLegAnswer(k) is an error, which fails the leg
// over like any other.
func readLegAnswer(r io.Reader, k int, buf []byte) ([]search.Result, []byte, error) {
	limit := maxLegAnswer(k)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return nil, buf, fmt.Errorf("leg answer exceeds %d bytes for k=%d", limit, k)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, buf, err
		}
	}
	part, err := decodeLegAnswer(buf)
	return part, buf, err
}

// decodeLegAnswer decodes a whole leg answer: directly when it is
// exactly what the shard's encoder writes, through json.Decoder — which
// reads the first JSON value and ignores what follows it — otherwise.
func decodeLegAnswer(b []byte) ([]search.Result, error) {
	// Every entry opens one brace, so this sizes the result exactly.
	part := make([]search.Result, 0, bytes.Count(b, []byte{'{'}))
	if part, ok := decodeAnswerPlain(b, part); ok {
		return part, nil
	}
	var list []shardResultJSON
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&list); err != nil {
		return nil, err
	}
	part = part[:0]
	for _, e := range list {
		part = append(part, search.Result{ID: e.ID, Score: e.Similarity})
	}
	return part, nil
}

// decodeAnswerPlain decodes the one answer shape a shard writes —
// [{"id":<int>,"similarity":<number>},…] with no whitespace inside, then
// nothing but whitespace — appending the entries to part. It reports
// false for every other answer, and for a number its field cannot hold:
// the caller then asks encoding/json. Numbers are converted by the
// strconv calls encoding/json makes, so an accepted answer yields the
// values json.Decoder would.
//
//geo:hotpath
func decodeAnswerPlain(b []byte, part []search.Result) ([]search.Result, bool) {
	if len(b) < 2 || b[0] != '[' {
		return part, false
	}
	i := 1
	if b[i] != ']' {
		for {
			var ok bool
			if i, ok = expect(b, i, `{"id":`); !ok {
				return part, false
			}
			end := jsonlex.NumberEnd(b, i)
			if end < 0 {
				return part, false
			}
			// The conversions do not retain their argument: the strings
			// stay on the stack.
			id, err := strconv.ParseInt(string(b[i:end]), 10, 64)
			if err != nil || int64(int(id)) != id {
				return part, false
			}
			if i, ok = expect(b, end, `,"similarity":`); !ok {
				return part, false
			}
			if end = jsonlex.NumberEnd(b, i); end < 0 {
				return part, false
			}
			sim, err := strconv.ParseFloat(string(b[i:end]), 64)
			if err != nil {
				return part, false
			}
			if i, ok = expect(b, end, `}`); !ok || i == len(b) {
				return part, false
			}
			part = append(part, search.Result{ID: int(id), Score: sim})
			if b[i] == ']' {
				break
			}
			if b[i] != ',' {
				return part, false
			}
			i++
		}
	}
	return part, jsonlex.SkipSpace(b, i+1) == len(b)
}

// expect returns the index past lit if b[i:] starts with it.
func expect(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}
