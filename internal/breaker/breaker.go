// Package breaker is a per-target circuit breaker for the distributed
// serving plane: it turns a dead or misbehaving shard from a
// per-query timeout into a one-time cost.
//
// Without a breaker, every fan-out leg to a crashed shard burns a
// full RequestTimeout before the router fails over — the shard is
// down once, but every query pays for it. The breaker remembers: a
// failure-rate window trips it open, open legs are skipped instantly
// (the router goes straight to the next replica), and after OpenFor
// a single half-open probe tests the water. One probe, not a herd:
// if fifty queries arrive while the breaker is half-open, one of them
// carries the probe and the other forty-nine keep failing over, so a
// still-dead shard costs one RTT per OpenFor period, total.
//
// State machine:
//
//	closed ──(failure rate ≥ Threshold over ≥ MinSamples)──▶ open
//	open ──(OpenFor elapsed)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed (window reset)
//	half-open ──(probe fails)──▶ open (timer re-armed)
//
// Outcomes are reported through the token returned by Allow, so a
// straggling response from before a trip can never be misattributed
// as the half-open probe's verdict — the "poisoned breaker" bug the
// chaos matrix pins against.
//
// The clock is injectable (Config.Clock), making every transition
// deterministic under test without sleeping.
package breaker

import (
	"sync"
	"time"
)

// State is a breaker's position in the state machine.
type State int

const (
	// Closed: requests flow; outcomes feed the failure window.
	Closed State = iota
	// Open: requests are refused without touching the target.
	Open
	// HalfOpen: exactly one probe request is allowed through.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "invalid"
}

// Config parameterises a breaker. Zero values select the documented
// defaults.
type Config struct {
	// Window is the sliding outcome window length. 0 selects 16.
	Window int
	// Threshold is the failure fraction over the window that trips
	// the breaker. 0 selects 0.5.
	Threshold float64
	// MinSamples is the minimum outcomes in the window before the
	// threshold is consulted — a single failure on a cold breaker must
	// not black out a healthy shard. 0 selects 4.
	MinSamples int
	// OpenFor is how long the breaker stays open before allowing the
	// half-open probe. 0 selects 2s.
	OpenFor time.Duration
	// Clock supplies the current time; nil selects time.Now. Tests
	// inject a fake clock to step through transitions deterministically.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Breaker is one target's circuit breaker. Safe for concurrent use.
type Breaker struct {
	cfg Config

	mu       sync.Mutex
	state    State
	outcomes []bool // ring buffer of recent outcomes (true = success)
	next     int    // ring write cursor
	filled   int    // valid entries in outcomes
	fails    int    // failures among the valid entries
	openedAt time.Time
	probing  bool // a half-open probe token is outstanding
}

// New builds a breaker in the closed state.
func New(cfg Config) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, outcomes: make([]bool, cfg.Window)}
}

// Token reports one request's outcome back to the breaker that
// admitted it. Done must be called exactly once. A token remembers
// whether it was the half-open probe, so late results from before a
// trip cannot flip the state machine.
type Token struct {
	b     *Breaker
	probe bool
	used  bool
}

// Allow asks to send one request to the target. It returns a Token
// and true when the request may proceed (closed, or the half-open
// probe slot), or nil and false when the breaker is open — the caller
// should fail over immediately.
func (b *Breaker) Allow() (*Token, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return &Token{b: b}, true
	case Open:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.OpenFor {
			return nil, false
		}
		b.state = HalfOpen
		fallthrough
	case HalfOpen:
		if b.probing {
			return nil, false
		}
		b.probing = true
		return &Token{b: b, probe: true}, true
	}
	return nil, false
}

// Done reports the request's outcome. Probe outcomes drive the
// half-open transition; closed-state outcomes feed the window; a
// straggler landing after a trip is dropped on the floor (the window
// it belonged to is gone).
func (t *Token) Done(success bool) {
	if t == nil || t.used {
		return
	}
	t.used = true
	b := t.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.probe {
		b.probing = false
		if b.state != HalfOpen {
			return // a concurrent trip superseded this probe
		}
		if success {
			b.reset(Closed)
		} else {
			b.state = Open
			b.openedAt = b.cfg.Clock()
		}
		return
	}
	if b.state != Closed {
		return // straggler from before a trip
	}
	b.record(success)
	// The threshold is only consulted on failures: a success can push
	// the window past MinSamples, but a shard must never be tripped by
	// its own recovery (e.g. two old failures still in the window when
	// hint redelivery starts succeeding).
	if !success {
		b.maybeTrip()
	}
}

// maybeTrip trips the breaker when the window crosses the failure
// threshold. Caller holds mu.
func (b *Breaker) maybeTrip() {
	if b.filled >= b.cfg.MinSamples &&
		float64(b.fails)/float64(b.filled) >= b.cfg.Threshold {
		b.reset(Open)
		b.openedAt = b.cfg.Clock()
	}
}

// record pushes one outcome into the ring window. Caller holds mu.
func (b *Breaker) record(success bool) {
	if b.filled == len(b.outcomes) {
		if !b.outcomes[b.next] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.outcomes[b.next] = success
	if !success {
		b.fails++
	}
	b.next = (b.next + 1) % len(b.outcomes)
}

// reset clears the window and moves to state. Caller holds mu.
func (b *Breaker) reset(state State) {
	b.state = state
	b.next, b.filled, b.fails = 0, 0, 0
	b.probing = false
}

// State returns the current state, advancing open to half-open when
// the open period has elapsed (so observers see what Allow would).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.OpenFor {
		return HalfOpen
	}
	return b.state
}
