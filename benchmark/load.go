package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator: one process, a fixed number of connections, a
// closed loop (capacity) and an open loop (latency at a fixed arrival
// rate). Every response is checked; a wrong, refused or failed request
// is counted, never dropped.

// client is the load generator's HTTP client: a pool of keep-alive
// connections, each used by one goroutine at a time, which writes the
// request and reads the answer itself. net/http's Transport hands every
// request through two more goroutines per connection; on topk_hot that
// cost a fifth of the closed-loop rate and left a busy host three
// wake-ups per request to delay. No more than conns goroutines share
// a client, which is what bounds the load: conns connections in all.
type client struct {
	mu   sync.Mutex
	idle map[string][]*wire // by base URL
}

// wire is one connection to one server.
type wire struct {
	host string
	c    net.Conn
	br   *bufio.Reader
	out  bytes.Buffer
}

func newClient(conns int) *client {
	return &client{idle: make(map[string][]*wire, conns)}
}

// take returns an idle connection to base, or dials one.
func (c *client) take(base string) (*wire, error) {
	c.mu.Lock()
	if ws := c.idle[base]; len(ws) > 0 {
		w := ws[len(ws)-1]
		c.idle[base] = ws[:len(ws)-1]
		c.mu.Unlock()
		return w, nil
	}
	c.mu.Unlock()
	host, ok := strings.CutPrefix(base, "http://")
	if !ok {
		return nil, fmt.Errorf("base URL %q is not http://host:port", base)
	}
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, err
	}
	return &wire{host: host, c: conn, br: bufio.NewReader(conn)}, nil
}

func (c *client) put(base string, w *wire) {
	c.mu.Lock()
	c.idle[base] = append(c.idle[base], w)
	c.mu.Unlock()
}

// CloseIdleConnections closes every connection not in use.
func (c *client) CloseIdleConnections() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for base, ws := range c.idle {
		for _, w := range ws {
			w.c.Close()
		}
		delete(c.idle, base)
	}
}

type resultJSON struct {
	ID         int     `json:"id"`
	Similarity float64 `json:"similarity"`
}

// send issues one request and returns the status and whole body. A
// connection that failed is closed, not reused.
func send(c *client, base string, rq request) (int, []byte, error) {
	w, err := c.take(base)
	if err != nil {
		return 0, nil, err
	}
	status, body, keep, err := w.roundTrip(rq)
	if err != nil || !keep {
		w.c.Close()
	} else {
		c.put(base, w)
	}
	return status, body, err
}

// roundTrip writes rq and reads the answer; keep says whether the
// server left the connection open for another.
func (w *wire) roundTrip(rq request) (status int, body []byte, keep bool, err error) {
	w.out.Reset()
	fmt.Fprintf(&w.out, "%s %s HTTP/1.1\r\nHost: %s\r\n", rq.method, rq.path, w.host)
	if rq.body != nil {
		fmt.Fprintf(&w.out, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(rq.body))
	}
	w.out.WriteString("\r\n")
	w.out.Write(rq.body)
	if _, err := w.c.Write(w.out.Bytes()); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		return 0, nil, false, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, !resp.Close, err
}

// checkAnswer is the per-response gate of every timed request: status
// 200, at most k results, best first. A shard answers with the bare
// list, the router with an envelope that must not be partial. It
// returns the ranked list as the bytes the server sent, which is what
// verification compares with the oracle's.
func checkAnswer(status int, body []byte, viaRouter bool) (json.RawMessage, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	raw := json.RawMessage(bytes.TrimSpace(body))
	if viaRouter {
		var env struct {
			Results json.RawMessage `json:"results"`
			Partial bool            `json:"partial"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			return nil, err
		}
		if env.Partial {
			return nil, fmt.Errorf("partial answer")
		}
		raw = env.Results
	}
	var list []resultJSON
	if err := json.Unmarshal(raw, &list); err != nil {
		return nil, err
	}
	if len(list) > topK {
		return nil, fmt.Errorf("%d results for k=%d", len(list), topK)
	}
	for i := 1; i < len(list); i++ {
		if list[i].Similarity > list[i-1].Similarity {
			return nil, fmt.Errorf("results not in descending order at %d", i)
		}
	}
	return raw, nil
}

// target is where a phase sends its stream.
type target struct {
	client    *client
	base      string
	viaRouter bool
	stream    stream
	conns     int
}

// phaseStats is what one timed phase observed.
type phaseStats struct {
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	latencies []time.Duration // of correct answers; open loop: from the due time
	lateness  []time.Duration // open loop: send time minus due time
	// backlog is how many requests were due but unanswered when the
	// open phase ended.
	backlog int
}

func (p *phaseStats) correct() int { return p.attempted - p.failed }

// merge folds a worker's observations into p.
func (p *phaseStats) merge(w *phaseStats) {
	p.attempted += w.attempted
	p.failed += w.failed
	if p.firstErr == nil {
		p.firstErr = w.firstErr
	}
	p.latencies = append(p.latencies, w.latencies...)
	p.lateness = append(p.lateness, w.lateness...)
}

// observe counts one answered request and, if the answer is correct,
// records its latency since start and returns its ranked list (nil for
// a failed request).
func (p *phaseStats) observe(start time.Time, status int, body []byte, err error, viaRouter bool) json.RawMessage {
	p.attempted++
	var raw json.RawMessage
	if err == nil {
		raw, err = checkAnswer(status, body, viaRouter)
	}
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		return nil
	}
	p.latencies = append(p.latencies, time.Since(start))
	return raw
}

// closedLoop runs t.conns clients back to back for d, drawing stream
// positions from next (shared across phases so no request repeats
// unless the stream itself does).
func closedLoop(t target, next *atomic.Int64, d time.Duration) *phaseStats {
	total := &phaseStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < t.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &phaseStats{}
			for time.Now().Before(deadline) {
				rq := t.stream.at(int(next.Add(1) - 1))
				begin := time.Now()
				status, body, err := send(t.client, t.base, rq)
				st.observe(begin, status, body, err, t.viaRouter)
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}

// The runtime's timers round sub-millisecond waits up to a millisecond
// when the process is otherwise idle, which is ten times a cache hit.
// So the open loop waits in nanosleep(2), which the kernel's
// high-resolution timers serve, up to spinBefore ahead of the due time
// and polls the clock from there; sleepChunk bounds one sleep so a
// closed stop channel is noticed soon.
const (
	spinBefore = 100 * time.Microsecond
	sleepChunk = 5 * time.Millisecond
)

// openLoop sends request j of the phase at start + j/rate, on t.conns
// connections, until d has passed (d > 0) or stop is closed. Latency
// runs from the due time, so a stall is charged to every request that
// was due while it lasted (no coordinated omission). Requests in
// flight when the phase ends are allowed to finish.
func openLoop(t target, next *atomic.Int64, rate float64, d time.Duration, stop <-chan struct{}) *phaseStats {
	total := &phaseStats{}
	var completions []time.Duration // offsets from start
	var mu sync.Mutex
	var wg sync.WaitGroup
	var slot atomic.Int64
	var stoppedAt atomic.Int64
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for w := 0; w < t.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &phaseStats{}
			var done []time.Duration
			for {
				off := time.Duration(slot.Add(1)-1) * interval
				if d > 0 && off >= d {
					break
				}
				due := start.Add(off)
				// Built before the wait, so that generating it is not
				// charged to the request.
				rq := t.stream.at(int(next.Add(1) - 1))
				if !waitUntil(due, stop) {
					stoppedAt.CompareAndSwap(0, int64(time.Since(start)))
					break
				}
				st.lateness = append(st.lateness, time.Since(due))
				status, body, err := send(t.client, t.base, rq)
				st.observe(due, status, body, err, t.viaRouter)
				done = append(done, time.Since(start))
			}
			mu.Lock()
			total.merge(st)
			completions = append(completions, done...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	// Completions that trail arrivals when the phase ends: requests due
	// by then minus requests answered by then.
	end := d
	if at := time.Duration(stoppedAt.Load()); at > 0 {
		end = at
	}
	due := int((end + interval - 1) / interval)
	for _, c := range completions {
		if c < end {
			due--
		}
	}
	total.backlog = due
	return total
}

// waitUntil returns true at time due, or false as soon as stop is
// closed (a nil stop never is).
func waitUntil(due time.Time, stop <-chan struct{}) bool {
	for {
		select {
		case <-stop:
			return false
		default:
		}
		wait := time.Until(due) - spinBefore
		if wait <= 0 {
			for time.Now().Before(due) {
			}
			return true
		}
		ts := syscall.NsecToTimespec(int64(min(wait, sleepChunk)))
		_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: the loop sleeps again
	}
}

// backlogGrowing reports whether the open phase ended with more
// unanswered requests than its connections can hold in flight plus
// 50 ms of arrivals — the sign that completions trail arrivals.
func backlogGrowing(backlog, conns int, rate float64) bool {
	return float64(backlog) > float64(conns)+0.05*rate
}

// sliceLength is the length of the slices a capacity phase is cut
// into; see closedSlices.
const sliceLength = time.Second

// sliceCount is how many slices of about sliceLength a phase of d has.
func sliceCount(d time.Duration) int { return max(1, int(d/sliceLength)) }

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailQuantile picks the percentile a sample of n supports: the highest
// one, up to p99, that still has at least ten samples beyond it. With
// fewer than twenty samples it is the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.99, float64(n-10)/float64(n))
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of float samples; 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
