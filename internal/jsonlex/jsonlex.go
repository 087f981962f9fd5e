// Package jsonlex holds the lexical checks the reflection-free decoders
// share (the ingest NDJSON line, the /v1/query body, the router's leg
// answer): where JSON whitespace ends, where a JSON number ends, and
// where a plain JSON string ends. The decoders accept only what
// encoding/json would accept, converting with the strconv calls it
// makes, and hand everything else to it; these checks are what keeps
// the first half of that promise, because strconv accepts more than
// JSON does ("01", ".5", "5.", "+1", "0x1p3", "Inf").
package jsonlex

// SkipSpace returns the index of the first byte of b at or after i
// that is not JSON whitespace.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// NumberEnd returns the end of the JSON number starting at b[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 when b[i:]
// does not start with one.
func NumberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// PlainStringEnd returns the end of the plain JSON string starting at
// b[i] — a quote, printable ASCII other than quote and backslash, a
// quote — or -1 when b[i:] does not start with one. A plain string means
// exactly the bytes between its quotes, to encoding/json too; a string
// with an escape, a control byte or a non-ASCII byte is not plain, and
// is left to encoding/json.
func PlainStringEnd(b []byte, i int) int {
	if i == len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case !plainByte(c):
			return -1
		}
	}
	return -1
}

// Plain reports whether s can be written between two quotes as it is:
// the Go side of PlainStringEnd.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

func plainByte(c byte) bool { return ' ' <= c && c <= '~' && c != '"' && c != '\\' }

// digitsEnd returns the index of the first non-digit of b at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
