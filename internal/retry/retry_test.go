package retry

import (
	"math/rand"
	"testing"
	"time"
)

// Retry-After takes precedence over the jittered schedule and does
// not advance the backoff state.
func TestRetryAfterWins(t *testing.T) {
	b := New(50*time.Millisecond, 2*time.Second, rand.New(rand.NewSource(1)))
	if got := b.Next("3"); got != 3*time.Second {
		t.Fatalf("Next with Retry-After: 3 = %v, want 3s", got)
	}
	if got := b.Next("0"); got != 0 {
		t.Fatalf("Next with Retry-After: 0 = %v, want 0", got)
	}
	// After only server-directed waits, the jittered schedule still
	// starts from the first-retry window [base, 3·base].
	if got := b.Next("soon"); got < 50*time.Millisecond || got > 150*time.Millisecond {
		t.Fatalf("fallback wait = %v, want within [base, 3·base]", got)
	}
}

// Only delay-seconds that fit a time.Duration parse; everything else
// leaves the wait to the jittered schedule.
func TestParseRetryAfter(t *testing.T) {
	for _, c := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"0", 0, true},
		{"3", 3 * time.Second, true},
		{"10", 10 * time.Second, true},
		{"9223372036", 9223372036 * time.Second, true},
		{"9223372037", 0, false}, // overflows a time.Duration
		{"99999999999999999999", 0, false},
		{"-1", 0, false},
		{"", 0, false},
		{"soon", 0, false},
		{"1.5", 0, false},
	} {
		got, ok := ParseRetryAfter(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	// The overflowing hint no longer wraps into a negative wait that
	// retries at once: it falls back to the first-retry window.
	b := New(50*time.Millisecond, 2*time.Second, rand.New(rand.NewSource(1)))
	if got := b.Next("9223372037"); got < 50*time.Millisecond || got > 150*time.Millisecond {
		t.Fatalf("Next with an overflowing Retry-After = %v, want within [base, 3·base]", got)
	}
}

// Decorrelated jitter: every wait lies in [base, min(cap, 3·prev)],
// and the schedule saturates at the cap instead of overflowing.
func TestDecorrelatedEnvelope(t *testing.T) {
	base, cp := 50*time.Millisecond, 2*time.Second
	b := New(base, cp, rand.New(rand.NewSource(2)))
	prev := base
	for i := 0; i < 200; i++ {
		got := b.Next("")
		hi := 3 * prev
		if hi > cp {
			hi = cp
		}
		if got < base || got > hi {
			t.Fatalf("wait %d: %v outside [%v, %v]", i, got, base, hi)
		}
		if got > cp {
			t.Fatalf("wait %d: %v exceeds cap %v", i, got, cp)
		}
		prev = got
	}
}

// The whole point of the fix: waits must use the full jitter window,
// not cluster around a deterministic exponential step. With the old
// ±25% schedule, every client's attempt-3 wait fell within
// [0.75, 1.25]·(base<<3); under decorrelated jitter the third waits
// of a population spread over several times that band.
func TestJitterSpreadsAcrossFullWindow(t *testing.T) {
	base, cp := 50*time.Millisecond, 30*time.Second
	var third []time.Duration
	for seed := int64(0); seed < 300; seed++ {
		b := New(base, cp, rand.New(rand.NewSource(seed)))
		b.Next("")
		b.Next("")
		third = append(third, b.Next(""))
	}
	min, max := third[0], third[0]
	for _, d := range third {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	// The old schedule confined attempt 3 to a 1.67x band
	// (1.25/0.75). Demand at least a 4x spread.
	if float64(max)/float64(min) < 4 {
		t.Fatalf("third-wait spread %v..%v (%.1fx) — still bunched like the capped-jitter schedule",
			min, max, float64(max)/float64(min))
	}
	for _, d := range third {
		if d < base {
			t.Fatalf("wait %v below base", d)
		}
	}
}

// Reset returns the schedule to the first-retry window.
func TestReset(t *testing.T) {
	b := New(50*time.Millisecond, time.Minute, rand.New(rand.NewSource(3)))
	for i := 0; i < 20; i++ {
		b.Next("")
	}
	b.Reset()
	if got := b.Next(""); got > 150*time.Millisecond {
		t.Fatalf("post-Reset wait %v, want within [base, 3·base]", got)
	}
}

// Same seed, same schedule — reproducible load generation.
func TestDeterministic(t *testing.T) {
	a := New(50*time.Millisecond, 2*time.Second, rand.New(rand.NewSource(9)))
	b := New(50*time.Millisecond, 2*time.Second, rand.New(rand.NewSource(9)))
	for i := 0; i < 50; i++ {
		if wa, wb := a.Next(""), b.Next(""); wa != wb {
			t.Fatalf("step %d: %v vs %v", i, wa, wb)
		}
	}
}

// A nil rng draws from the global source without panicking, and
// degenerate base/cap configurations are repaired.
func TestDefaults(t *testing.T) {
	b := New(0, -1, nil)
	for i := 0; i < 10; i++ {
		if d := b.Next(""); d <= 0 {
			t.Fatalf("wait %v not positive", d)
		}
	}
}
