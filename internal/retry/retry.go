// Package retry is the shared retry-backoff policy for HTTP clients
// that talk to the serving plane: geofeed retrying shed ingest
// batches, and the router retrying per-shard fan-out requests. One
// policy, one implementation, so a fleet of feeders and a tier of
// routers shed and return with the same statistics.
//
// The server's Retry-After always wins when present — it knows its
// own drain or backlog horizon. Otherwise the wait follows
// *decorrelated jitter* (Brooker, "Exponential Backoff And Jitter"):
//
//	sleep(n) = min(cap, uniform(base, 3·sleep(n-1)))
//
// which the earlier geofeed schedule (exponential with ±25% jitter)
// approximated badly: its jitter band was a fixed fraction of the
// deterministic exponential step, so clients shed together stayed
// bunched around the same instants and returned together — the
// thundering herd the jitter was supposed to break. Decorrelated
// jitter draws each wait from the full [base, 3·prev] range, so
// retry times spread across the whole window while still growing
// toward the cap on persistent overload.
//
// Exchange is the one way those clients talk HTTP: it sends a request,
// hands the status, header and body to a callback, and then drains
// and closes the body whatever the callback did. Closing a body that
// was not read to its end tears down its keep-alive connection, and a
// body never closed pins its connection for good; either starves the
// router's scatter-gather of pooled connections. No other non-test
// code holds an *http.Response (geolint's bodyclose rule).
package retry

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// maxDrain bounds how much of a body Exchange reads past what handle
// read. A longer rest costs the connection instead: closing it unread
// makes the transport dial anew for the next request.
const maxDrain = 64 << 10

// Exchange sends req through c and calls handle with the response's
// status code, header and body. Whatever handle returns, and however
// much of the body it read, Exchange then drains at most maxDrain
// bytes of the rest and closes the body, so the connection goes back
// to c's pool. It returns c.Do's error, or else handle's.
func Exchange(c *http.Client, req *http.Request, handle func(status int, h http.Header, body io.Reader) error) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrain))
		_ = resp.Body.Close()
	}()
	return handle(resp.StatusCode, resp.Header, resp.Body)
}

// ParseRetryAfter reads a Retry-After header value in its
// delay-seconds form (RFC 9110): a non-negative integer number of
// seconds. ok is false for an absent, non-numeric or negative value,
// and for one whose duration does not fit a time.Duration.
func ParseRetryAfter(v string) (d time.Duration, ok bool) {
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs < 0 || secs > math.MaxInt64/int64(time.Second) {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// Backoff schedules retry waits with decorrelated jitter. Not safe
// for concurrent use: give each retrying request its own instance
// (they are two words plus an rng pointer).
type Backoff struct {
	base, cap time.Duration
	prev      time.Duration
	rng       *rand.Rand
}

// New returns a Backoff growing from base to cap. rng may be nil, in
// which case the global (concurrency-safe) math/rand source is used;
// pass a seeded rng for reproducible schedules in tests and load
// generators.
func New(base, cap time.Duration, rng *rand.Rand) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Backoff{base: base, cap: cap, rng: rng}
}

func (b *Backoff) int63n(n int64) int64 {
	if b.rng != nil {
		return b.rng.Int63n(n)
	}
	return rand.Int63n(n)
}

// Next returns how long to sleep before the next retry. retryAfter is
// the raw Retry-After header value; when ParseRetryAfter accepts it,
// its wait is returned as-is and does not advance the jitter state
// (the server-directed wait says nothing about our own congestion).
// An unparsable or absent value falls back to the decorrelated
// schedule.
func (b *Backoff) Next(retryAfter string) time.Duration {
	if d, ok := ParseRetryAfter(retryAfter); ok {
		return d
	}
	prev := b.prev
	if prev < b.base {
		prev = b.base // first retry draws from [base, 3·base]
	}
	hi := 3 * prev
	if hi <= 0 || hi > b.cap { // <= 0: the multiplication overflowed
		hi = b.cap
	}
	d := b.base
	if hi > b.base {
		d += time.Duration(b.int63n(int64(hi-b.base) + 1))
	}
	b.prev = d
	return d
}

// Reset forgets the accumulated backoff; call after a success so the
// next failure starts from base again.
func (b *Backoff) Reset() { b.prev = 0 }
