package breaker

import (
	"sync"
	"testing"
	"time"
)

// fakeClock steps time manually so every transition is deterministic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(clk *fakeClock) *Breaker {
	return New(Config{
		Window:     8,
		Threshold:  0.5,
		MinSamples: 4,
		OpenFor:    time.Second,
		Clock:      clk.Now,
	})
}

// outcome drives one allowed request to its verdict, failing the test
// if the breaker refused it.
func outcome(t *testing.T, b *Breaker, success bool) {
	t.Helper()
	tok, ok := b.Allow()
	if !ok {
		t.Fatalf("Allow refused in state %v", b.State())
	}
	tok.Done(success)
}

// The full state machine walk: closed trips open at the failure
// threshold, open rejects instantly, half-open admits exactly one
// probe, and the probe's verdict decides recovery vs re-trip.
func TestStateMachine(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := newTestBreaker(clk)

	if b.State() != Closed {
		t.Fatalf("fresh breaker state = %v, want closed", b.State())
	}
	// Below MinSamples nothing trips, even at 100% failure.
	outcome(t, b, false)
	outcome(t, b, false)
	outcome(t, b, false)
	if b.State() != Closed {
		t.Fatalf("tripped below MinSamples")
	}
	// The 4th failure reaches MinSamples at 100% failure rate: trip.
	outcome(t, b, false)
	if b.State() != Open {
		t.Fatalf("state after 4 failures = %v, want open", b.State())
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("open breaker admitted a request")
	}

	// Open period elapses: exactly one half-open probe goes through.
	clk.Advance(time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state after OpenFor = %v, want half-open", b.State())
	}
	probe, ok := b.Allow()
	if !ok {
		t.Fatal("half-open breaker refused the probe")
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe fails: back to open, timer re-armed.
	probe.Done(false)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("re-opened breaker admitted a request")
	}

	// Next period: probe succeeds, breaker closes with a fresh window.
	clk.Advance(time.Second)
	probe2, ok := b.Allow()
	if !ok {
		t.Fatal("second probe refused")
	}
	probe2.Done(true)
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	// The window was reset: 3 failures among recent successes must not
	// instantly re-trip off stale history.
	outcome(t, b, true)
	outcome(t, b, true)
	outcome(t, b, true)
	outcome(t, b, false)
	if b.State() != Closed {
		t.Fatalf("re-tripped off a reset window")
	}
}

// The window slides: old outcomes age out, so a burst of failures
// beyond the window followed by recovery does not pin the rate.
func TestWindowSlides(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := New(Config{Window: 4, Threshold: 0.75, MinSamples: 4, OpenFor: time.Second, Clock: clk.Now})
	// 2 failures then 2 successes: rate 0.5 < 0.75, closed.
	outcome(t, b, false)
	outcome(t, b, false)
	outcome(t, b, true)
	outcome(t, b, true)
	if b.State() != Closed {
		t.Fatal("tripped below threshold")
	}
	// 2 more successes push the failures out of the window entirely;
	// one new failure is 1/4 < 0.75.
	outcome(t, b, true)
	outcome(t, b, true)
	outcome(t, b, false)
	if b.State() != Closed {
		t.Fatal("window did not slide: stale failures still counted")
	}
}

// A straggler outcome from before a trip must not flip the state
// machine — its token was issued in the closed state, and by the time
// it lands the breaker has moved on.
func TestStragglerCannotPoison(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := newTestBreaker(clk)

	straggler, ok := b.Allow()
	if !ok {
		t.Fatal("closed breaker refused")
	}
	for i := 0; i < 4; i++ {
		outcome(t, b, false)
	}
	if b.State() != Open {
		t.Fatal("did not trip")
	}
	// The straggler's success lands while open: dropped, not treated
	// as a probe verdict.
	straggler.Done(true)
	if b.State() != Open {
		t.Fatalf("straggler closed an open breaker")
	}

	// Same across the half-open boundary: a straggler is not the probe.
	clk.Advance(time.Second)
	probe, ok := b.Allow()
	if !ok {
		t.Fatal("probe refused")
	}
	late, ok2 := b.Allow()
	if ok2 {
		late.Done(true)
		t.Fatal("second token issued in half-open")
	}
	probe.Done(true)
	if b.State() != Closed {
		t.Fatal("probe success did not close")
	}
	// Double-Done is a no-op.
	probe.Done(false)
	if b.State() != Closed {
		t.Fatalf("double Done flipped state to %v", b.State())
	}
}

// Concurrent Allow/Done churn must stay internally consistent (run
// under -race by make cluster-chaos); at most one probe token exists
// per half-open period.
func TestConcurrentChaos(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := New(Config{Window: 8, Threshold: 0.5, MinSamples: 4, OpenFor: time.Millisecond, Clock: time.Now})
	_ = clk
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if tok, ok := b.Allow(); ok {
					tok.Done(i%3 != g%3)
				}
			}
		}()
	}
	wg.Wait()
	if st := b.State(); st.String() == "invalid" {
		t.Fatalf("breaker reached invalid state: %v", st)
	}
}
