package extract

import (
	"math/rand"
	"testing"

	"geofootprint/internal/traj"
)

// TestExtractorPushAllocs: once a pass has grown its buffer to the
// longest run, Push allocates nothing on any of its paths — extending,
// emitting and back-tracking — nor does Flush.
func TestExtractorPushAllocs(t *testing.T) {
	cfg := Config{Epsilon: 1, Tau: 4}
	// TestExtractBacktracking's trajectory: c back-tracks onto b, then
	// the far point emits b..e.
	backtrack := mkTraj(pt(0, 0), pt(0.9, 0), pt(1.5, 0), pt(1.2, 0), pt(1.3, 0.1), pt(100, 100), pt(100, 100.1))
	walk := dwellWalk(rand.New(rand.NewSource(3)), 2000, cfg.Epsilon)
	emitted := 0
	ex, err := NewExtractor(cfg, func(RoI) { emitted++ })
	if err != nil {
		t.Fatal(err)
	}
	pass := func() {
		for _, session := range []traj.Trajectory{backtrack, walk} {
			for _, l := range session {
				ex.Push(l)
			}
			ex.Flush()
		}
	}
	pass()
	if emitted == 0 {
		t.Fatal("the warm-up pass emitted no region")
	}
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("a pass allocates %v times after the warm-up", allocs)
	}
}

func TestExtractorMultiSession(t *testing.T) {
	// One extractor reused across sessions via Flush.
	cfg := Config{Epsilon: 0.1, Tau: 3}
	var out []RoI
	ex, err := NewExtractor(cfg, func(r RoI) { out = append(out, r) })
	if err != nil {
		t.Fatal(err)
	}
	s1 := mkTraj(pt(0, 0), pt(0.01, 0), pt(0, 0.01))
	s2 := mkTraj(pt(5, 5), pt(5.01, 5), pt(5, 5.01))
	for _, l := range s1 {
		ex.Push(l)
	}
	ex.Flush()
	if len(out) != 1 {
		t.Fatalf("after session 1: %d RoIs, want 1", len(out))
	}
	for _, l := range s2 {
		ex.Push(l)
	}
	ex.Flush()
	if len(out) != 2 {
		t.Fatalf("after session 2: %d RoIs, want 2", len(out))
	}
	// Sessions must not bleed into each other: second RoI is at (5,5).
	if out[1].Rect.MinX < 4 {
		t.Errorf("second region contaminated by first session: %+v", out[1])
	}
}

func TestExtractorPending(t *testing.T) {
	cfg := Config{Epsilon: 1, Tau: 10}
	ex, err := NewExtractor(cfg, func(RoI) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.PendingLocations()) != 0 {
		t.Errorf("fresh extractor pending %d locations", len(ex.PendingLocations()))
	}
	ex.Push(traj.Location{P: pt(0, 0), T: 0})
	ex.Push(traj.Location{P: pt(0.1, 0), T: 1})
	if len(ex.PendingLocations()) != 2 {
		t.Errorf("pending %d locations, want 2", len(ex.PendingLocations()))
	}
	ex.Flush()
	if len(ex.PendingLocations()) != 0 {
		t.Errorf("pending %d locations after Flush", len(ex.PendingLocations()))
	}
}

func TestExtractorRejectsBadConfig(t *testing.T) {
	if _, err := NewExtractor(Config{Epsilon: -1, Tau: 1}, func(RoI) {}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestExtractorEmitsEagerly(t *testing.T) {
	// A region must be emitted as soon as the location breaking it
	// arrives — before Flush.
	cfg := Config{Epsilon: 0.1, Tau: 3}
	emitted := 0
	ex, err := NewExtractor(cfg, func(RoI) { emitted++ })
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []struct{ x, y float64 }{
		{0, 0}, {0.01, 0}, {0, 0.01}, // region
		{9, 9}, // breaker
	} {
		ex.Push(traj.Location{P: pt(p.x, p.y), T: float64(i)})
	}
	if emitted != 1 {
		t.Errorf("emitted %d regions before Flush, want 1", emitted)
	}
}
