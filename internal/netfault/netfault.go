// Package netfault is deterministic fault injection for the network
// plane between the router and its shards — the HTTP counterpart of
// internal/faultfs's storage-plane schedules, built on the same
// design: a Schedule is a reproducible coordinate ("the 3rd request
// to shard-1 fails"), counters are 1-based and ordered under a lock,
// and Fired() is the oracle that a schedule actually exercised what
// it meant to.
//
// The injection point is http.RoundTripper: the router's Config.Client
// seam accepts any transport, so a Transport wraps the real one and
// the whole client policy above it — retries, breakers, failover,
// admission gates — runs unmodified against the faults. Nothing in
// the router knows it is being tested.
//
// Fault vocabulary (per target, any combination):
//
//   - FailRequestN: the Nth request errors before reaching the wire —
//     a refused connection.
//   - FailFromN: every request from the Nth on errors — a crashed
//     process that stays down.
//   - BlackholeAfterK: after K completed requests, subsequent requests
//     hang until their context fires — a network partition, the
//     expensive failure mode (costs the caller its full timeout).
//   - LatencyN/Latency: the Nth request (every request when LatencyN
//     is 0) is delayed by Latency before forwarding — a slow link.
//   - CutBodyN: the Nth response's body is truncated mid-stream — a
//     connection dropped between headers and payload; decoders must
//     fail loudly, never parse a prefix as the whole.
//
// Schedules are keyed by target host (URL.Host), so a chaos matrix
// can aim different faults at different shards in one cluster.
package netfault

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// ErrInjected marks every error a Transport produces. The net/http
// client wraps transport errors in *url.Error, which unwraps, so
// errors.Is(err, netfault.ErrInjected) works on what callers see.
var ErrInjected = errors.New("netfault: injected network fault")

// injectedError names the fault and target for logs and test output.
type injectedError struct {
	op     string
	target string
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("netfault: injected %s fault for %s", e.op, e.target)
}

func (e *injectedError) Unwrap() error { return ErrInjected }

// Schedule is one target's deterministic fault plan. Counters are
// 1-based over the requests sent to that target through the same
// Transport. Zero fields never fire.
type Schedule struct {
	// FailRequestN fails the Nth request with ErrInjected before it
	// reaches the inner transport.
	FailRequestN int
	// FailFromN fails every request from the Nth on — the target
	// process crashed and stays down.
	FailFromN int
	// BlackholeAfterK hangs every request after K requests have
	// completed (succeeded or failed), until the request's context
	// fires. K=0 never fires; to blackhole from the first request use
	// BlackholeAfterK with FailFromN unset and K small.
	BlackholeAfterK int
	// Latency delays matching requests before forwarding. LatencyN
	// selects the Nth request only; 0 with Latency > 0 delays every
	// request. The delay races the request context: a context that
	// fires first aborts the request with its error, like a real slow
	// link under a deadline.
	LatencyN int
	Latency  time.Duration
	// CutBodyN truncates the Nth response's body mid-stream: the first
	// Read returns roughly half the bytes it would have, the next
	// returns ErrInjected. Headers arrive intact.
	CutBodyN int
}

// target is one host's runtime state: its schedule and counters.
type target struct {
	sched     Schedule
	requests  int // requests admitted (1-based counter source)
	completed int // requests that returned (any status) — Blackhole's K
}

// Transport is a fault-injecting http.RoundTripper. Safe for
// concurrent use. Targets without a schedule pass through untouched.
type Transport struct {
	inner http.RoundTripper

	mu      sync.Mutex
	targets map[string]*target
	fired   []string
}

// New wraps inner (nil selects http.DefaultTransport).
func New(inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner, targets: make(map[string]*target)}
}

// Set installs (or replaces) the schedule for a target host
// ("127.0.0.1:8080" — the URL.Host of the shard's address). Counters
// reset with the schedule, so a test can re-arm a fresh plan.
func (t *Transport) Set(host string, s Schedule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.targets[host] = &target{sched: s}
}

// Clear removes a target's schedule; its requests pass through again.
func (t *Transport) Clear(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.targets, host)
}

// Fired reports, in order, the faults that have fired as
// "host:fault" strings — the oracle that a schedule exercised the
// path it meant to.
//
//lint:ignore testonly fault injection: the chaos suites check a schedule fired what it meant to
func (t *Transport) Fired() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.fired))
	copy(out, t.fired)
	return out
}

// Requests returns how many requests were admitted for host.
//
//lint:ignore testonly fault injection: the chaos suites count the legs a schedule admitted
func (t *Transport) Requests(host string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tg := t.targets[host]; tg != nil {
		return tg.requests
	}
	return 0
}

// Targets lists the hosts with schedules installed, sorted.
//
//lint:ignore testonly fault injection: the chaos suites list the hosts a schedule covers
func (t *Transport) Targets() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.targets))
	for h := range t.targets {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

func (t *Transport) record(host, what string) {
	t.fired = append(t.fired, host+":"+what)
}

// verdict is the decision for one request, taken under the lock.
type verdict struct {
	fail      bool
	blackhole bool
	delay     time.Duration
	cutBody   bool
}

func (t *Transport) admit(host string) (*target, verdict) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tg := t.targets[host]
	if tg == nil {
		return nil, verdict{}
	}
	tg.requests++
	n := tg.requests
	var v verdict
	switch {
	case tg.sched.FailFromN > 0 && n >= tg.sched.FailFromN:
		t.record(host, "fail-from")
		v.fail = true
	case tg.sched.FailRequestN > 0 && n == tg.sched.FailRequestN:
		t.record(host, "fail-request")
		v.fail = true
	case tg.sched.BlackholeAfterK > 0 && tg.completed >= tg.sched.BlackholeAfterK:
		t.record(host, "blackhole")
		v.blackhole = true
	}
	if !v.fail && !v.blackhole && tg.sched.Latency > 0 &&
		(tg.sched.LatencyN == 0 || tg.sched.LatencyN == n) {
		t.record(host, "latency")
		v.delay = tg.sched.Latency
	}
	if !v.fail && !v.blackhole && tg.sched.CutBodyN > 0 && n == tg.sched.CutBodyN {
		t.record(host, "cut-body")
		v.cutBody = true
	}
	return tg, v
}

func (t *Transport) complete(tg *target) {
	if tg == nil {
		return
	}
	t.mu.Lock()
	tg.completed++
	t.mu.Unlock()
}

// RoundTrip applies the target's schedule, then forwards to the inner
// transport. Fail and blackhole verdicts never reach the wire.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	tg, v := t.admit(host)
	switch {
	case v.fail:
		t.complete(tg)
		return nil, &injectedError{op: "connect", target: host}
	case v.blackhole:
		// A partition: nothing answers, ever. The caller's context is
		// the only way out — exactly the failure a per-attempt deadline
		// exists for. Counts as completed only once abandoned.
		<-req.Context().Done()
		t.complete(tg)
		return nil, fmt.Errorf("%w: %v", &injectedError{op: "blackhole", target: host}, req.Context().Err())
	case v.delay > 0:
		timer := time.NewTimer(v.delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			t.complete(tg)
			return nil, fmt.Errorf("%w: %v", &injectedError{op: "latency", target: host}, req.Context().Err())
		}
	}
	resp, err := t.inner.RoundTrip(req)
	t.complete(tg)
	if err != nil {
		return nil, err
	}
	if v.cutBody {
		resp.Body = &cutBody{inner: resp.Body, target: host}
		// The advertised length no longer matches what the reader will
		// see; clear it so the client does not pre-trust it.
		resp.ContentLength = -1
	}
	return resp, nil
}

// cutBody truncates a response body mid-stream: the first Read
// returns about half of what it would have, the second returns
// ErrInjected. Close always closes the inner body, so the connection
// accounting of the real transport stays correct.
type cutBody struct {
	inner  io.ReadCloser
	target string
	read   bool
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.read {
		return 0, &injectedError{op: "cut-body", target: c.target}
	}
	c.read = true
	half := len(p) / 2
	if half < 1 {
		half = 1
	}
	n, err := c.inner.Read(p[:half])
	if err != nil && err != io.EOF {
		return n, err
	}
	if n > 1 {
		// Drop the tail of even a short first read: the caller must
		// see a strict prefix, never the full payload.
		n--
	}
	return n, nil
}

func (c *cutBody) Close() error { return c.inner.Close() }
