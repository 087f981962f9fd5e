package d3

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
)

func p3(x, y, z float64) geom.Point3 { return geom.Point3{X: x, Y: y, Z: z} }

func mkTraj3(pts ...geom.Point3) Trajectory3 {
	t := make(Trajectory3, len(pts))
	for i, p := range pts {
		t[i] = Location3{P: p, T: float64(i)}
	}
	return t
}

// dwellWalk3 mirrors the 2D test generator in 3D: dwell clusters with
// small jitter alternate with large transit steps.
func dwellWalk3(rng *rand.Rand, n int, eps float64) Trajectory3 {
	t := make(Trajectory3, 0, n)
	cur := p3(rng.Float64(), rng.Float64(), rng.Float64())
	for len(t) < n {
		if rng.Float64() < 0.5 {
			dur := 1 + rng.Intn(40)
			for k := 0; k < dur && len(t) < n; k++ {
				q := p3(
					cur.X+(rng.Float64()-0.5)*eps/3,
					cur.Y+(rng.Float64()-0.5)*eps/3,
					cur.Z+(rng.Float64()-0.5)*eps/3,
				)
				t = append(t, Location3{P: q, T: float64(len(t))})
			}
		} else {
			steps := 1 + rng.Intn(5)
			for k := 0; k < steps && len(t) < n; k++ {
				cur = p3(
					cur.X+(rng.Float64()-0.5)*10*eps,
					cur.Y+(rng.Float64()-0.5)*10*eps,
					cur.Z+(rng.Float64()-0.5)*10*eps,
				)
				t = append(t, Location3{P: cur, T: float64(len(t))})
			}
		}
	}
	return t
}

func TestExtract3SingleRegion(t *testing.T) {
	tr := mkTraj3(p3(0, 0, 0), p3(0.01, 0, 0), p3(0, 0.01, 0), p3(0, 0, 0.01))
	got := Extract3(tr, extract.Config{Epsilon: 0.1, Tau: 3})
	if len(got) != 1 {
		t.Fatalf("got %d regions, want 1", len(got))
	}
	r := got[0]
	if r.Count != 4 || r.TStart != 0 || r.TEnd != 3 {
		t.Errorf("RoI = %+v", r)
	}
	want := geom.Box3{MinX: 0, MinY: 0, MinZ: 0, MaxX: 0.01, MaxY: 0.01, MaxZ: 0.01}
	if r.Box != want {
		t.Errorf("Box = %v, want %v", r.Box, want)
	}
	if r.Duration() != 3 {
		t.Errorf("Duration = %v", r.Duration())
	}
}

func TestExtract3SplitOnZ(t *testing.T) {
	// Same (x, y) but different floors: the z-dimension must split
	// the regions — the reason a 2D extractor is not enough in 3D.
	tr := mkTraj3(
		p3(0.5, 0.5, 0), p3(0.5, 0.5, 0.001), p3(0.5, 0.5, 0), // floor 0
		p3(0.5, 0.5, 1), p3(0.5, 0.5, 1.001), p3(0.5, 0.5, 1), // floor 1
	)
	got := Extract3(tr, extract.Config{Epsilon: 0.1, Tau: 3})
	if len(got) != 2 {
		t.Fatalf("got %d regions, want 2 (one per floor): %+v", len(got), got)
	}
	if got[0].Box.MaxZ > 0.5 || got[1].Box.MinZ < 0.5 {
		t.Errorf("regions not separated by floor: %+v", got)
	}
}

func TestExtract3Empty(t *testing.T) {
	cfg := extract.Config{Epsilon: 1, Tau: 3}
	if got := Extract3(nil, cfg); got != nil {
		t.Errorf("Extract3(nil) = %v", got)
	}
	if got := Extract3(mkTraj3(p3(0, 0, 0)), cfg); got != nil {
		t.Errorf("short trajectory = %v", got)
	}
}

func TestExtract3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for _, mode := range []extract.Mode{extract.DiameterL2, extract.ExtentMBR} {
		for trial := 0; trial < 40; trial++ {
			cfg := extract.Config{Epsilon: 0.02, Tau: 2 + rng.Intn(25), Mode: mode}
			tr := dwellWalk3(rng, 100+rng.Intn(300), cfg.Epsilon)
			fast := Extract3(tr, cfg)
			naive := ExtractNaive3(tr, cfg)
			if !reflect.DeepEqual(fast, naive) {
				t.Fatalf("mode=%v tau=%d: optimized and naive differ\nfast:  %+v\nnaive: %+v",
					mode, cfg.Tau, fast, naive)
			}
		}
	}
}

func TestExtract3Invariants(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for trial := 0; trial < 20; trial++ {
		cfg := extract.Config{Epsilon: 0.02, Tau: 5 + rng.Intn(20)}
		tr := dwellWalk3(rng, 300, cfg.Epsilon)
		prevEnd := -1.0
		for i, r := range Extract3(tr, cfg) {
			if r.Count < cfg.Tau {
				t.Fatalf("region %d: %d < tau", i, r.Count)
			}
			if r.TStart <= prevEnd {
				t.Fatalf("region %d not temporally disjoint", i)
			}
			prevEnd = r.TEnd
			// Pairwise constraint on the run.
			var run []geom.Point3
			for _, l := range tr {
				if l.T >= r.TStart && l.T <= r.TEnd {
					run = append(run, l.P)
				}
			}
			if len(run) != r.Count {
				t.Fatalf("region %d count mismatch", i)
			}
			for a := range run {
				for b := a + 1; b < len(run); b++ {
					if math.Sqrt(run[a].DistSq(run[b])) > cfg.Epsilon+1e-12 {
						t.Fatalf("region %d violates pairwise eps", i)
					}
				}
			}
		}
	}
}

func TestFromRoIs3(t *testing.T) {
	rois := []RoI3{
		{Box: geom.Box3{MinX: 0.5, MaxX: 0.6, MaxY: 0.1, MaxZ: 0.1}, TStart: 0, TEnd: 2, Count: 3},
		{Box: geom.Box3{MinX: 0.1, MaxX: 0.2, MaxY: 0.1, MaxZ: 0.1}, TStart: 5, TEnd: 5, Count: 1},
	}
	unit := FromRoIs3(rois, UnitWeight)
	if len(unit) != 2 || unit[0].Weight != 1 || unit[1].Weight != 1 {
		t.Errorf("unit = %+v", unit)
	}
	// Sorted by MinX.
	if unit[0].Box.MinX > unit[1].Box.MinX {
		t.Error("FromRoIs3 output not sorted")
	}
	dur := FromRoIs3(rois, DurationWeight)
	// After sorting, the 0.5-MinX box (duration 2) is second.
	if dur[1].Weight != 2 {
		t.Errorf("duration weight = %v, want 2", dur[1].Weight)
	}
	if dur[0].Weight != 1 {
		t.Errorf("zero-duration fallback = %v, want 1", dur[0].Weight)
	}
}

// TestPipeline3D: 3D trajectories → footprints → similarity end to end.
func TestPipeline3D(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	cfg := extract.Config{Epsilon: 0.02, Tau: 10}
	mkUser := func(cx, cy, cz float64) Footprint3 {
		var tr Trajectory3
		for c := 0; c < 3; c++ {
			for i := 0; i < 30; i++ {
				tr = append(tr, Location3{
					P: p3(
						cx+float64(c)*0.05+rng.Float64()*0.005,
						cy+rng.Float64()*0.005,
						cz+rng.Float64()*0.005,
					),
					T: float64(len(tr)),
				})
			}
			// transit jump
			tr = append(tr, Location3{P: p3(9, 9, 9), T: float64(len(tr))})
			tr[len(tr)-1].P = p3(cx+float64(c)*0.05+0.5, cy+0.5, cz+0.5)
		}
		return FromRoIs3(Extract3(tr, cfg), UnitWeight)
	}
	a := mkUser(0.1, 0.1, 0.1)
	b := mkUser(0.1, 0.1, 0.1) // same area
	c := mkUser(0.8, 0.8, 0.8) // elsewhere
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("no regions extracted")
	}
	simAB := Similarity(a, b)
	simAC := Similarity(a, c)
	if simAB <= simAC {
		t.Errorf("co-located users not more similar: %v vs %v", simAB, simAC)
	}
	if got := Similarity(a, a); got < 1-1e-9 {
		t.Errorf("self similarity = %v", got)
	}
}
