package d3

import (
	"math"
	"math/rand"
	"testing"

	"geofootprint/internal/geom"
)

func almostEq(a, b float64) bool {
	const eps = 1e-9
	d := math.Abs(a - b)
	return d <= eps || d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

func box(x1, y1, z1, x2, y2, z2 float64) geom.Box3 {
	return geom.Box3{MinX: x1, MinY: y1, MinZ: z1, MaxX: x2, MaxY: y2, MaxZ: z2}
}

func randFootprint3(rng *rand.Rand, n, grid int) Footprint3 {
	f := make(Footprint3, n)
	for i := range f {
		x := float64(rng.Intn(grid))
		y := float64(rng.Intn(grid))
		z := float64(rng.Intn(grid))
		f[i] = Region3{
			Box: box(x, y, z,
				x+float64(1+rng.Intn(3)),
				y+float64(1+rng.Intn(3)),
				z+float64(1+rng.Intn(3))),
			Weight: float64(1 + rng.Intn(3)),
		}
	}
	return f
}

func TestNormBasics3D(t *testing.T) {
	tests := []struct {
		name string
		f    Footprint3
		want float64
	}{
		{"empty", Footprint3{}, 0},
		{"unit cube", Footprint3{{Box: box(0, 0, 0, 1, 1, 1), Weight: 1}}, 1},
		{"box", Footprint3{{Box: box(0, 0, 0, 2, 3, 4), Weight: 1}}, math.Sqrt(24)},
		{"weighted", Footprint3{{Box: box(0, 0, 0, 1, 1, 2), Weight: 3}}, math.Sqrt(2 * 9)},
		{"two disjoint", Footprint3{
			{Box: box(0, 0, 0, 1, 1, 1), Weight: 1},
			{Box: box(5, 5, 5, 6, 6, 7), Weight: 1},
		}, math.Sqrt(3)},
		{"two identical", Footprint3{
			{Box: box(0, 0, 0, 1, 1, 1), Weight: 1},
			{Box: box(0, 0, 0, 1, 1, 1), Weight: 1},
		}, 2},
		{"degenerate", Footprint3{{Box: box(1, 1, 1, 1, 2, 2), Weight: 1}}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Norm(tt.f); !almostEq(got, tt.want) {
				t.Errorf("Norm = %v, want %v", got, tt.want)
			}
			if got := NormNaive(tt.f); !almostEq(got, tt.want) {
				t.Errorf("NormNaive = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestNormMatchesNaive3D(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		f := randFootprint3(rng, rng.Intn(10), 6)
		got, want := Norm(f), NormNaive(f)
		if !almostEq(got, want) {
			t.Fatalf("trial %d: Norm = %v, naive = %v", trial, got, want)
		}
	}
}

func TestSimilarityHandComputed3D(t *testing.T) {
	// Two overlapping unit cubes shifted by 0.5 in x.
	fr := Footprint3{{Box: box(0, 0, 0, 1, 1, 1), Weight: 1}}
	fs := Footprint3{{Box: box(0.5, 0, 0, 1.5, 1, 1), Weight: 1}}
	// Numerator = 0.5, norms both 1.
	want := 0.5
	if got := Similarity(fr, fs); !almostEq(got, want) {
		t.Errorf("Similarity = %v, want %v", got, want)
	}
	if got := SimilarityJoin(fr, fs, Norm(fr), Norm(fs)); !almostEq(got, want) {
		t.Errorf("SimilarityJoin = %v, want %v", got, want)
	}
}

func TestSimilarityAlgorithmsAgree3D(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 40; trial++ {
		fr := randFootprint3(rng, rng.Intn(8), 6)
		fs := randFootprint3(rng, rng.Intn(8), 6)
		naive := SimilarityNaive(fr, fs)
		sweep, nr, ns := SimilarityWithNorms(fr, fs)
		if !almostEq(sweep, naive) {
			t.Fatalf("trial %d: sweep %v != naive %v", trial, sweep, naive)
		}
		if !almostEq(nr, Norm(fr)) || !almostEq(ns, Norm(fs)) {
			t.Fatalf("trial %d: combined-pass norms differ", trial)
		}
		jn := SimilarityJoin(fr, fs, nr, ns)
		if !almostEq(jn, naive) {
			t.Fatalf("trial %d: join %v != naive %v", trial, jn, naive)
		}
		if sweep < 0 || sweep > 1 {
			t.Fatalf("trial %d: similarity %v outside [0,1]", trial, sweep)
		}
	}
}

func TestSimilarityIdentity3D(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 20; trial++ {
		f := randFootprint3(rng, 1+rng.Intn(8), 6)
		if Norm(f) == 0 {
			continue
		}
		if got := Similarity(f, f); !almostEq(got, 1) {
			t.Fatalf("trial %d: sim(F,F) = %v", trial, got)
		}
	}
}

func TestSimilaritySymmetric3D(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 20; trial++ {
		fr := randFootprint3(rng, 1+rng.Intn(6), 6)
		fs := randFootprint3(rng, 1+rng.Intn(6), 6)
		if a, b := Similarity(fr, fs), Similarity(fs, fr); !almostEq(a, b) {
			t.Fatalf("trial %d: not symmetric: %v vs %v", trial, a, b)
		}
	}
}

func TestSimilarityZeroCases3D(t *testing.T) {
	deg := Footprint3{{Box: box(0, 0, 0, 0, 1, 1), Weight: 1}}
	cube := Footprint3{{Box: box(0, 0, 0, 1, 1, 1), Weight: 1}}
	far := Footprint3{{Box: box(9, 9, 9, 10, 10, 10), Weight: 1}}
	if got := Similarity(deg, cube); got != 0 {
		t.Errorf("degenerate similarity = %v", got)
	}
	if got := Similarity(nil, cube); got != 0 {
		t.Errorf("empty similarity = %v", got)
	}
	if got := Similarity(cube, far); got != 0 {
		t.Errorf("disjoint similarity = %v", got)
	}
	if got := SimilarityJoin(cube, far, 1, 1); got != 0 {
		t.Errorf("disjoint join similarity = %v", got)
	}
}

func TestTranslationInvariance3D(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 15; trial++ {
		fr := randFootprint3(rng, 1+rng.Intn(6), 5)
		fs := randFootprint3(rng, 1+rng.Intn(6), 5)
		dx, dy, dz := rng.Float64()*10, rng.Float64()*10, rng.Float64()*10
		a := Similarity(fr, fs)
		b := Similarity(translate3(fr, dx, dy, dz), translate3(fs, dx, dy, dz))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("trial %d: translation changed similarity: %v vs %v", trial, a, b)
		}
	}
}

// translate3 returns a copy of f shifted by (dx, dy, dz).
func translate3(f Footprint3, dx, dy, dz float64) Footprint3 {
	g := make(Footprint3, len(f))
	for i, r := range f {
		b := r.Box
		b.MinX += dx
		b.MaxX += dx
		b.MinY += dy
		b.MaxY += dy
		b.MinZ += dz
		b.MaxZ += dz
		g[i] = Region3{Box: b, Weight: r.Weight}
	}
	return g
}
