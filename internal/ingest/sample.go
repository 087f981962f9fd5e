// Package ingest is the durable streaming front door of the system: it
// accepts raw (user, x, y, t) location samples as the positioning
// system reports them (Section 3.2's live supervised space), makes
// them durable in a write-ahead log, splits them into sessions per
// user, feeds the sessions through the streaming RoI extractor
// (Algorithm 1), and applies finished RoIs to the FootprintDB in
// batches — keeping footprints, norms, MBRs and sketches incrementally
// correct while all four query methods keep serving. It is also the
// one write path for direct edits: an upsert or removal of a user's
// footprint is a record of the same log (record.go).
//
// The pipeline is WAL-first: a record is appended (and, per the sync
// policy, fsynced) before it is acknowledged or applied, so a crash at
// any point loses nothing that was acknowledged under SyncEveryAppend.
// Recovery = load the latest snapshot + replay the WAL tail; both
// paths run the one apply function over the identical record
// sequence, and how many records the live pipeline applied at once
// cannot be seen in the data, so the recovered database is
// byte-identical to one produced by an uninterrupted run over the same
// records (tested).
package ingest

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"geofootprint/internal/jsonlex"
)

// Sample is one raw location report: user identifier, normalized
// position and timestamp in seconds. It is the unit of the NDJSON wire
// format of POST /v1/ingest and of the WAL payload.
type Sample struct {
	User int     `json:"user"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	T    float64 `json:"t"`
}

// sampleWireSize is the fixed binary size of one sample in a WAL
// payload: int64 user + three float64s.
const sampleWireSize = 8 + 3*8

// EncodeBatch appends the binary WAL payload for a sample batch to buf
// and returns the extended slice: a uint32 count followed by
// fixed-width samples (little endian).
func EncodeBatch(buf []byte, samples []Sample) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(samples)))
	for _, s := range samples {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.User)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.T))
	}
	return buf
}

// decodeBatch parses a payload written by EncodeBatch (DecodeRecord's
// sample-batch case); a malformed one is an error, not silent
// truncation.
func decodeBatch(payload []byte) ([]Sample, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("ingest: batch payload of %d bytes has no count", len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+n*sampleWireSize {
		return nil, fmt.Errorf("ingest: batch payload of %d bytes for %d samples", len(payload), n)
	}
	samples := make([]Sample, n)
	off := 4
	for i := range samples {
		samples[i] = Sample{
			User: int(int64(binary.LittleEndian.Uint64(payload[off:]))),
			X:    math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:])),
			Y:    math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16:])),
			T:    math.Float64frombits(binary.LittleEndian.Uint64(payload[off+24:])),
		}
		off += sampleWireSize
	}
	return samples, nil
}

// The line scanner starts on a pooled buffer of scanBufSize; a longer
// line grows a private one, and one beyond maxLineSize is an error.
const (
	scanBufSize = 64 * 1024
	maxLineSize = 1 << 20
)

// scanBufs recycles scanner buffers across ParseNDJSON calls: nothing
// ParseNDJSON returns points into one.
var scanBufs = sync.Pool{New: func() any { return new([scanBufSize]byte) }}

// minPlainLine is the shortest line carrying all four fields, newline
// included: a body of n bytes holds at most n/minPlainLine+1 of them.
const minPlainLine = len(`{"user":0,"x":0,"y":0,"t":0}`) + 1

// ParseNDJSON reads newline-delimited JSON samples (the POST
// /v1/ingest body) up to max samples; one more line is an error, as is
// any malformed line. Blank lines are skipped, so trailing newlines
// and keep-alive blank lines are harmless.
//
// Every line means what encoding/json says it means: the plain shape a
// feeder writes is decoded directly (decodePlain) and any other line —
// valid or not — goes through json.Unmarshal, so acceptance, values
// and error text are encoding/json's (FuzzParseNDJSON holds the two
// together). A reader that knows its remaining length (Len() int, as
// bytes.Reader, bytes.Buffer and strings.Reader have) gets the result
// slice sized up front.
func ParseNDJSON(r io.Reader, max int) ([]Sample, error) {
	var samples []Sample
	if l, ok := r.(interface{ Len() int }); ok && l.Len() > 0 && max > 0 {
		samples = make([]Sample, 0, min(l.Len()/minPlainLine+1, max))
	}
	buf := scanBufs.Get().(*[scanBufSize]byte)
	defer scanBufs.Put(buf)
	sc := bufio.NewScanner(r)
	sc.Buffer(buf[:0], maxLineSize)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if jsonlex.SkipSpace(b, 0) == len(b) {
			continue
		}
		if len(samples) == max {
			return nil, fmt.Errorf("ingest: batch exceeds %d samples", max)
		}
		s, ok := decodePlain(b)
		if !ok {
			// A variable of its own: the one json.Unmarshal takes the
			// address of lives on the heap.
			var parsed Sample
			if err := json.Unmarshal(b, &parsed); err != nil {
				return nil, fmt.Errorf("ingest: line %d: %w", line, err)
			}
			s = parsed
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// Bits of decodePlain's seen mask, one per Sample field.
const (
	seenUser = 1 << iota
	seenX
	seenY
	seenT
	seenAll = seenUser | seenX | seenY | seenT
)

// decodePlain decodes the one line shape a feeder writes — an object
// with exactly the keys "user", "x", "y", "t" (lower case, unescaped,
// any order, each once), JSON numbers as values, optional JSON
// whitespace — without reflection or allocation. It reports false for
// every other line, well-formed or not, and for a number the field
// cannot hold (a fraction or exponent in user, an out-of-range value):
// the caller then asks json.Unmarshal, which accepts or rejects the
// line in its own words. Numbers that pass the JSON grammar are
// converted by the same strconv calls encoding/json makes, so an
// accepted line yields the bits json.Unmarshal would.
//
//geo:hotpath
func decodePlain(b []byte) (s Sample, ok bool) {
	i := jsonlex.SkipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return s, false
	}
	i++
	seen := 0
	for {
		i = jsonlex.SkipSpace(b, i)
		// The shortest member left is `"x":0}`.
		if len(b)-i < 6 || b[i] != '"' {
			return s, false
		}
		field, keyLen := 0, 1
		switch b[i+1] {
		case 'x':
			field = seenX
		case 'y':
			field = seenY
		case 't':
			field = seenT
		case 'u':
			if b[i+2] != 's' || b[i+3] != 'e' || b[i+4] != 'r' {
				return s, false
			}
			field, keyLen = seenUser, 4
		default:
			return s, false
		}
		i += 1 + keyLen // at the key's closing quote
		if b[i] != '"' || seen&field != 0 {
			return s, false
		}
		seen |= field
		i = jsonlex.SkipSpace(b, i+1)
		if i == len(b) || b[i] != ':' {
			return s, false
		}
		i = jsonlex.SkipSpace(b, i+1)
		end := jsonlex.NumberEnd(b, i)
		if end < 0 {
			return s, false
		}
		// The conversions do not retain their argument, so the string
		// lives on the stack for any number a feeder writes.
		num := string(b[i:end])
		if field == seenUser {
			n, err := strconv.ParseInt(num, 10, 64)
			if err != nil || int64(int(n)) != n {
				return s, false
			}
			s.User = int(n)
		} else {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return s, false
			}
			switch field {
			case seenX:
				s.X = f
			case seenY:
				s.Y = f
			default:
				s.T = f
			}
		}
		i = jsonlex.SkipSpace(b, end)
		if i == len(b) {
			return s, false
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return s, false
		}
		i++
	}
	return s, seen == seenAll && jsonlex.SkipSpace(b, i+1) == len(b)
}
