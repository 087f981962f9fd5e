package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// referenceParseNDJSON is ParseNDJSON as it was before the plain line
// got its own decoder: json.Unmarshal on every line. It stays here as
// the oracle — what encoding/json accepts, the values it produces and
// the errors it words are, by definition, what ParseNDJSON must do.
func referenceParseNDJSON(r io.Reader, max int) ([]Sample, error) {
	var samples []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		trimmed := false
		for _, c := range b {
			if c != ' ' && c != '\t' && c != '\r' {
				trimmed = true
				break
			}
		}
		if !trimmed {
			continue
		}
		if len(samples) == max {
			return nil, fmt.Errorf("ingest: batch exceeds %d samples", max)
		}
		var s Sample
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("ingest: line %d: %w", line, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// fuzzMaxSamples is small so that the fuzzer reaches the over-limit
// branch with a handful of lines.
const fuzzMaxSamples = 4

// sameParse fails unless ParseNDJSON and the reference agree on data:
// accept or reject, the error text (which carries the line number), and
// every sample bit for bit.
func sameParse(t *testing.T, data []byte) {
	t.Helper()
	want, werr := referenceParseNDJSON(bytes.NewReader(data), fuzzMaxSamples)
	// With the length known (sized result) and hidden (grown result).
	for _, r := range []io.Reader{bytes.NewReader(data), struct{ io.Reader }{bytes.NewReader(data)}} {
		got, gerr := ParseNDJSON(r, fuzzMaxSamples)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("error %v, reference %v\ninput %q", gerr, werr, data)
		}
		if len(got) != len(want) {
			t.Fatalf("%d samples, reference %d\ninput %q", len(got), len(want), data)
		}
		for i, g := range got {
			w := want[i]
			if g.User != w.User || math.Float64bits(g.X) != math.Float64bits(w.X) ||
				math.Float64bits(g.Y) != math.Float64bits(w.Y) || math.Float64bits(g.T) != math.Float64bits(w.T) {
				t.Fatalf("sample %d = %+v, reference %+v\ninput %q", i, g, w, data)
			}
		}
	}
}

// FuzzParseNDJSON holds the direct decoder to encoding/json on
// arbitrary bytes. The committed corpus (testdata/fuzz/FuzzParseNDJSON)
// names the boundaries between the two: key order, case and repeats,
// whitespace, every way a number can be almost JSON, the ends of the
// int64 and float64 ranges, trailing bytes, blank and CR-LF lines, one
// line too many.
func FuzzParseNDJSON(f *testing.F) {
	f.Add([]byte(`{"user":1,"x":0.5,"y":0.25,"t":10}` + "\n"))
	f.Fuzz(sameParse)
}

// Lines that must take the direct path, and what they must decode to.
func TestDecodePlain(t *testing.T) {
	for line, want := range map[string]Sample{
		`{"user":1,"x":0.5,"y":0.25,"t":10}`:                                    {1, 0.5, 0.25, 10},
		`{"t":10,"y":0.25,"x":0.5,"user":1}`:                                    {1, 0.5, 0.25, 10},
		" \t{ \"user\" : -7 ,\t\"x\":1E5 , \"y\" :-0.0e-0, \"t\":1e-400 } \r":   {-7, 1e5, math.Copysign(0, -1), 0},
		`{"user":-9223372036854775808,"x":0,"y":-0,"t":1.7976931348623157e308}`: {math.MinInt64, 0, math.Copysign(0, -1), math.MaxFloat64},
	} {
		got, ok := decodePlain([]byte(line))
		if !ok {
			t.Errorf("%q left to encoding/json", line)
			continue
		}
		if got.User != want.User || math.Float64bits(got.X) != math.Float64bits(want.X) ||
			math.Float64bits(got.Y) != math.Float64bits(want.Y) || math.Float64bits(got.T) != math.Float64bits(want.T) {
			t.Errorf("%q = %+v, want %+v", line, got, want)
		}
		sameParse(t, []byte(line))
	}
	// And lines it must leave alone, whether encoding/json then accepts
	// them (the first four) or not.
	for _, line := range []string{
		`{"USER":1,"x":0.5,"y":0.25,"t":10}`,
		`{"user":1,"user":2,"x":0.5,"y":0.25,"t":10}`,
		`{"user":1,"x":0.5,"y":0.25}`,
		`null`,
		`{"user":1.0,"x":0.5,"y":0.25,"t":10}`,
		`{"user":01,"x":0.5,"y":0.25,"t":10}`,
		`{"user":1,"x":.5,"y":0.25,"t":10}`,
		`{"user":1,"x":5.,"y":0.25,"t":10}`,
		`{"user":1,"x":1e999,"y":0.25,"t":10}`,
		`{"user":9223372036854775808,"x":0.5,"y":0.25,"t":10}`,
		`{"user":1,"x":0.5,"y":0.25,"t":10} x`,
		`{"user":1,"x":0.5,"y":0.25,"t":10,}`,
		`{"user":1,"x":0.5,"y":0.25,"t":1`,
		`{"user":1,"x":0.5,"y":0.25,"t":-}`,
		`{"user":1,"x":0.5,"y":0.25,"t":1e}`,
		`{"u":1,"x":0.5,"y":0.25,"t":10}`,
		`{"`,
	} {
		if s, ok := decodePlain([]byte(line)); ok {
			t.Errorf("%q decoded directly to %+v", line, s)
		}
		sameParse(t, []byte(line))
	}
}

// The error names the line it is on, counting blank lines, and is the
// reference's word for word.
func TestParseNDJSONErrorLine(t *testing.T) {
	body := "{\"user\":1,\"x\":0.5,\"y\":0.25,\"t\":10}\r\n\r\n{\"user\":1.5,\"x\":0.5,\"y\":0.25,\"t\":11}\n"
	_, err := ParseNDJSON(strings.NewReader(body), 10)
	if err == nil || !strings.HasPrefix(err.Error(), "ingest: line 3: json: cannot unmarshal number 1.5 into Go struct field") {
		t.Fatalf("err = %v", err)
	}
	sameParse(t, []byte(body))
}

// The plain line costs no allocation, and a whole body a constant few
// (the result, the scanner), whatever its length.
func TestParseNDJSONAllocs(t *testing.T) {
	line := []byte(`{"user":123456,"x":0.12345678901234567,"y":0.7654321098765432,"t":12345.5}`)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := decodePlain(line); !ok {
			t.Fatal("plain line left to encoding/json")
		}
	}); n != 0 {
		t.Errorf("decodePlain: %v allocations per line, want 0", n)
	}
	body := bytes.Repeat(append(line, '\n'), 500)
	rd := bytes.NewReader(body)
	if n := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		if s, err := ParseNDJSON(rd, 500); err != nil || len(s) != 500 {
			t.Fatalf("%d samples, %v", len(s), err)
		}
	}); n > 4 {
		t.Errorf("ParseNDJSON: %v allocations for a 500-line body, want a constant few", n)
	}
}
