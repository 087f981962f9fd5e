package core

import (
	"math/rand"
	"testing"

	"geofootprint/internal/geom"
)

func TestClip(t *testing.T) {
	f := Footprint{reg(0, 0, 2, 2, 1), reg(5, 5, 7, 7, 2), reg(1, 1, 6, 6, 1)}
	// Clip to a window covering only the first region fully and the
	// third partially.
	w := rect(0, 0, 3, 3)
	g := f.Clip(w)
	if len(g) != 2 {
		t.Fatalf("clipped to %d regions, want 2: %+v", len(g), g)
	}
	for _, r := range g {
		if w.Intersection(r.Rect) != r.Rect {
			t.Errorf("region %v escapes window", r.Rect)
		}
	}
	// Clip to an enclosing window is identity (up to ordering, which
	// is already MinX-sorted).
	all := f.Clip(rect(-10, -10, 10, 10))
	if len(all) != len(f) {
		t.Fatalf("enclosing clip dropped regions")
	}
	// Clip to a disjoint window empties the footprint.
	if got := f.Clip(rect(100, 100, 101, 101)); len(got) != 0 {
		t.Errorf("disjoint clip kept %d regions", len(got))
	}
}

func TestClipSimilarityScoping(t *testing.T) {
	// Two users identical inside the window, different outside:
	// window-scoped similarity is 1 even though global is below 1.
	shared := reg(0.1, 0.1, 0.3, 0.3, 1)
	a := Footprint{shared, reg(0.7, 0.7, 0.9, 0.9, 1)}
	b := Footprint{shared, reg(0.5, 0.1, 0.6, 0.2, 1)}
	w := rect(0, 0, 0.4, 0.4)
	global := Similarity(a, b)
	scoped := Similarity(a.Clip(w), b.Clip(w))
	if !(global < 1) {
		t.Fatalf("global similarity %v, want < 1", global)
	}
	if !almostEq(scoped, 1) {
		t.Fatalf("scoped similarity %v, want 1", scoped)
	}
}

func TestClipRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		f := randFootprint(rng, 1+rng.Intn(12), 10)
		w := geom.Rect{
			MinX: rng.Float64() * 5, MinY: rng.Float64() * 5,
		}
		w.MaxX = w.MinX + rng.Float64()*8
		w.MaxY = w.MinY + rng.Float64()*8
		g := f.Clip(w)
		// Clipping never increases the norm.
		if Norm(g) > Norm(f)+1e-9 {
			t.Fatalf("trial %d: clipping increased the norm", trial)
		}
		// Clipping is idempotent.
		gg := g.Clip(w)
		if len(gg) != len(g) {
			t.Fatalf("trial %d: clip not idempotent", trial)
		}
		for i := range g {
			if g[i] != gg[i] {
				t.Fatalf("trial %d: clip not idempotent at region %d", trial, i)
			}
		}
	}
}
