package core

import (
	"math"
	"math/rand"
	"testing"

	"geofootprint/internal/extract"
	"geofootprint/internal/geom"
)

func almostEq(a, b float64) bool {
	const eps = 1e-9
	d := math.Abs(a - b)
	return d <= eps || d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

func rect(x1, y1, x2, y2 float64) geom.Rect {
	return geom.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

func reg(x1, y1, x2, y2, w float64) Region {
	return Region{Rect: rect(x1, y1, x2, y2), Weight: w}
}

// randFootprint draws n regions on a grid, with shared coordinates
// likely, weights in {1, 2, 3}.
func randFootprint(rng *rand.Rand, n, grid int) Footprint {
	f := make(Footprint, n)
	for i := range f {
		x1 := float64(rng.Intn(grid))
		y1 := float64(rng.Intn(grid))
		f[i] = Region{
			Rect: geom.Rect{
				MinX: x1, MinY: y1,
				MaxX: x1 + float64(1+rng.Intn(grid/3)),
				MaxY: y1 + float64(1+rng.Intn(grid/3)),
			},
			Weight: float64(1 + rng.Intn(3)),
		}
	}
	// Sorted like every production footprint; the copy+sort fallback
	// has its own test (TestEnsureSortedFallback) so the rest of the
	// suite runs under -tags strictsort.
	SortByMinX(f)
	return f
}

func TestFromRoIs(t *testing.T) {
	rois := []extract.RoI{
		{Rect: rect(0, 0, 1, 1), TStart: 0, TEnd: 3, Count: 4},
		{Rect: rect(2, 2, 3, 3), TStart: 10, TEnd: 10, Count: 1},
	}
	unit := FromRoIs(rois, UnitWeight)
	if len(unit) != 2 || unit[0].Weight != 1 || unit[1].Weight != 1 {
		t.Errorf("UnitWeight footprint = %+v", unit)
	}
	dur := FromRoIs(rois, DurationWeight)
	if dur[0].Weight != 3 {
		t.Errorf("duration weight = %v, want 3", dur[0].Weight)
	}
	if dur[1].Weight != 1 {
		t.Errorf("zero-duration RoI weight = %v, want fallback 1", dur[1].Weight)
	}
}

func TestFootprintMBRAndArea(t *testing.T) {
	f := Footprint{reg(0, 0, 2, 2, 1), reg(1, 1, 4, 3, 1)}
	if got := f.MBR(); got != rect(0, 0, 4, 3) {
		t.Errorf("MBR = %v", got)
	}
	if !(Footprint{}).MBR().IsEmpty() {
		t.Error("empty footprint MBR should be empty")
	}
}

func TestNormBasics(t *testing.T) {
	tests := []struct {
		name string
		f    Footprint
		want float64
	}{
		{"empty", Footprint{}, 0},
		{"single unit square", Footprint{reg(0, 0, 1, 1, 1)}, 1},
		{"single rect", Footprint{reg(0, 0, 2, 3, 1)}, math.Sqrt(6)},
		{"weighted rect", Footprint{reg(0, 0, 2, 3, 2)}, math.Sqrt(6 * 4)},
		{"two disjoint", Footprint{reg(0, 0, 1, 1, 1), reg(5, 5, 6, 7, 1)}, math.Sqrt(1 + 2)},
		{"two identical", Footprint{reg(0, 0, 1, 1, 1), reg(0, 0, 1, 1, 1)}, 2},
		{"degenerate", Footprint{reg(1, 1, 1, 1, 1)}, 0},
		{"degenerate line", Footprint{reg(0, 0, 5, 0, 3)}, 0},
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

func TestNormPartialOverlap(t *testing.T) {
	// [0,4]x[0,4] and [2,6]x[0,4]: frequencies 1,2,1 over three
	// 2x4 slabs: ssq = 8 + 8*4 + 8 = 48.
	f := Footprint{reg(0, 0, 4, 4, 1), reg(2, 0, 6, 4, 1)}
	if got := Norm(f); !almostEq(got, math.Sqrt(48)) {
		t.Errorf("Norm = %v, want sqrt(48)", got)
	}
}

func TestNormMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 100; trial++ {
		f := randFootprint(rng, rng.Intn(25), 12)
		got, want := Norm(f), NormNaive(f)
		if !almostEq(got, want) {
			t.Fatalf("trial %d: Norm = %v, naive = %v\nfootprint: %+v", trial, got, want, f)
		}
	}
}

func TestNormScaling(t *testing.T) {
	// Scaling all coordinates by s scales the norm by s (area scales
	// by s²); scaling weights by w scales the norm by w.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		f := randFootprint(rng, 1+rng.Intn(15), 10)
		base := Norm(f)
		s := 1 + rng.Float64()*3
		scaled := make(Footprint, len(f))
		weighted := make(Footprint, len(f))
		for i, r := range f {
			scaled[i] = Region{Rect: scaleRect(r.Rect, s), Weight: r.Weight}
			weighted[i] = Region{Rect: r.Rect, Weight: r.Weight * s}
		}
		if got := Norm(scaled); !almostEq(got, base*s) {
			t.Fatalf("coordinate scaling: Norm = %v, want %v", got, base*s)
		}
		if got := Norm(weighted); !almostEq(got, base*s) {
			t.Fatalf("weight scaling: Norm = %v, want %v", got, base*s)
		}
	}
}

func TestDisjointRegions(t *testing.T) {
	f := Footprint{reg(0, 0, 4, 4, 1), reg(2, 0, 6, 4, 1)}
	drs := DisjointRegions(f)
	// Expect three slabs with weights 1, 2, 1.
	if len(drs) != 3 {
		t.Fatalf("got %d disjoint regions, want 3: %+v", len(drs), drs)
	}
	var ssq, area float64
	for _, d := range drs {
		ssq += d.Rect.Area() * d.Weight * d.Weight
		area += d.Rect.Area()
	}
	if !almostEq(ssq, 48) {
		t.Errorf("ssq from regions = %v, want 48", ssq)
	}
	if !almostEq(area, 24) {
		t.Errorf("union area = %v, want 24", area)
	}
}

func TestDisjointRegionsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 60; trial++ {
		f := randFootprint(rng, rng.Intn(20), 10)
		drs := DisjointRegions(f)
		// Pairwise disjoint (zero intersection area).
		for i := range drs {
			for j := i + 1; j < len(drs); j++ {
				if a := drs[i].Rect.IntersectionArea(drs[j].Rect); a > 1e-12 {
					t.Fatalf("trial %d: regions %d and %d overlap by %v", trial, i, j, a)
				}
			}
		}
		// Σ area·w² equals the squared norm.
		var ssq float64
		for _, d := range drs {
			ssq += d.Rect.Area() * d.Weight * d.Weight
			if d.Weight <= 0 {
				t.Fatalf("trial %d: non-positive weight %v", trial, d.Weight)
			}
			if d.Rect.Area() <= 0 {
				t.Fatalf("trial %d: empty output region %v", trial, d.Rect)
			}
		}
		if want := NormSquared(f); !almostEq(ssq, want) {
			t.Fatalf("trial %d: ssq = %v, want %v", trial, ssq, want)
		}
		// Probe points: weight at a disjoint region's center equals
		// the summed weight of the input regions covering it. Use
		// half-open containment — a probe lying exactly on another
		// rectangle's boundary receives no measurable coverage from
		// it, matching the decomposition's measure semantics.
		for _, d := range drs {
			c := d.Rect.Center()
			var w float64
			for _, r := range f {
				if r.Rect.MinX <= c.X && c.X < r.Rect.MaxX &&
					r.Rect.MinY <= c.Y && c.Y < r.Rect.MaxY {
					w += r.Weight
				}
			}
			if !almostEq(w, d.Weight) {
				t.Fatalf("trial %d: weight at %v = %v, want %v", trial, c, d.Weight, w)
			}
		}
	}
}

func TestDisjointRegionsEmpty(t *testing.T) {
	if got := DisjointRegions(nil); got != nil {
		t.Errorf("DisjointRegions(nil) = %v", got)
	}
}

func TestSimilarityHandComputed(t *testing.T) {
	// F(r) = {[0,4]x[0,4], [2,6]x[0,4]} — disjoint regions with
	// frequencies 1,2,1; ||F(r)||² = 48.
	// F(s) = {[3,5]x[0,2]} — ||F(s)||² = 4.
	// Numerator: [3,4]x[0,2] (freq 2·1) + [4,5]x[0,2] (freq 1·1) = 4+2 = 6.
	fr := Footprint{reg(0, 0, 4, 4, 1), reg(2, 0, 6, 4, 1)}
	fs := Footprint{reg(3, 0, 5, 2, 1)}
	want := 6 / (math.Sqrt(48) * 2)
	for name, got := range map[string]float64{
		"Similarity":      Similarity(fr, fs),
		"SimilaritySweep": SimilaritySweep(fr, fs, Norm(fr), Norm(fs)),
		"SimilarityJoin":  SimilarityJoin(fr, fs, Norm(fr), Norm(fs)),
		"SimilarityNaive": SimilarityNaive(fr, fs),
	} {
		if !almostEq(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSimilarityIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		f := randFootprint(rng, 1+rng.Intn(15), 10)
		n := Norm(f)
		if n == 0 {
			continue
		}
		if got := Similarity(f, f); !almostEq(got, 1) {
			t.Fatalf("trial %d: sim(F,F) = %v, want 1", trial, got)
		}
		if got := SimilaritySweep(f, f, n, n); !almostEq(got, 1) {
			t.Fatalf("trial %d: sweep sim(F,F) = %v, want 1", trial, got)
		}
		if got := SimilarityJoin(f, f, n, n); !almostEq(got, 1) {
			t.Fatalf("trial %d: join sim(F,F) = %v, want 1", trial, got)
		}
	}
}

func TestSimilarityDisjointZero(t *testing.T) {
	fr := Footprint{reg(0, 0, 1, 1, 1), reg(2, 2, 3, 3, 2)}
	fs := Footprint{reg(10, 10, 11, 11, 1)}
	if got := Similarity(fr, fs); got != 0 {
		t.Errorf("disjoint similarity = %v, want 0", got)
	}
	if got := SimilarityJoin(fr, fs, Norm(fr), Norm(fs)); got != 0 {
		t.Errorf("disjoint join similarity = %v, want 0", got)
	}
}

func TestSimilarityZeroNorm(t *testing.T) {
	degenerate := Footprint{reg(1, 1, 1, 1, 1)}
	normal := Footprint{reg(0, 0, 2, 2, 1)}
	cases := []struct{ a, b Footprint }{
		{degenerate, normal},
		{normal, degenerate},
		{degenerate, degenerate},
		{Footprint{}, normal},
		{Footprint{}, Footprint{}},
	}
	for i, c := range cases {
		got := Similarity(c.a, c.b)
		if got != 0 || math.IsNaN(got) {
			t.Errorf("case %d: zero-norm similarity = %v, want 0", i, got)
		}
		got = SimilarityJoin(c.a, c.b, Norm(c.a), Norm(c.b))
		if got != 0 || math.IsNaN(got) {
			t.Errorf("case %d: zero-norm join similarity = %v, want 0", i, got)
		}
	}
}

func TestSimilarityAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 100; trial++ {
		fr := randFootprint(rng, rng.Intn(20), 12)
		fs := randFootprint(rng, rng.Intn(20), 12)
		nr, ns := Norm(fr), Norm(fs)
		naive := SimilarityNaive(fr, fs)
		swp := SimilaritySweep(fr, fs, nr, ns)
		jn := SimilarityJoin(fr, fs, nr, ns)
		full, fnr, fns := SimilarityWithNorms(fr, fs)
		if !almostEq(swp, naive) {
			t.Fatalf("trial %d: sweep %v != naive %v\nfr=%+v\nfs=%+v", trial, swp, naive, fr, fs)
		}
		if !almostEq(jn, naive) {
			t.Fatalf("trial %d: join %v != naive %v\nfr=%+v\nfs=%+v", trial, jn, naive, fr, fs)
		}
		if !almostEq(full, naive) {
			t.Fatalf("trial %d: full %v != naive %v", trial, full, naive)
		}
		if !almostEq(fnr, nr) || !almostEq(fns, ns) {
			t.Fatalf("trial %d: norms from combined pass (%v, %v) != (%v, %v)",
				trial, fnr, fns, nr, ns)
		}
		if swp < 0 || swp > 1 {
			t.Fatalf("trial %d: similarity %v out of [0,1]", trial, swp)
		}
	}
}

func TestSimilaritySymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		fr := randFootprint(rng, 1+rng.Intn(12), 10)
		fs := randFootprint(rng, 1+rng.Intn(12), 10)
		if a, b := Similarity(fr, fs), Similarity(fs, fr); !almostEq(a, b) {
			t.Fatalf("trial %d: similarity not symmetric: %v vs %v", trial, a, b)
		}
	}
}

func TestSimilarityTranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		fr := randFootprint(rng, 1+rng.Intn(10), 10)
		fs := randFootprint(rng, 1+rng.Intn(10), 10)
		dx, dy := rng.Float64()*100-50, rng.Float64()*100-50
		a := Similarity(fr, fs)
		b := Similarity(fr.Translate(dx, dy), fs.Translate(dx, dy))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("trial %d: translation changed similarity: %v vs %v", trial, a, b)
		}
	}
}

func TestSimilarityScaleInvariant(t *testing.T) {
	// Scaling both footprints' coordinates by s leaves similarity
	// unchanged (numerator scales by s², each norm by s).
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		fr := randFootprint(rng, 1+rng.Intn(10), 10)
		fs := randFootprint(rng, 1+rng.Intn(10), 10)
		s := 0.1 + rng.Float64()*5
		scale := func(f Footprint) Footprint {
			g := make(Footprint, len(f))
			for i, r := range f {
				g[i] = Region{Rect: scaleRect(r.Rect, s), Weight: r.Weight}
			}
			return g
		}
		a := Similarity(fr, fs)
		b := Similarity(scale(fr), scale(fs))
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("trial %d: scaling changed similarity: %v vs %v", trial, a, b)
		}
	}
}

func TestWeightEquivalence(t *testing.T) {
	// A region with weight 2 is equivalent to two identical regions
	// of weight 1, in both norm and similarity.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		base := randFootprint(rng, 1+rng.Intn(8), 10)
		other := randFootprint(rng, 1+rng.Intn(8), 10)
		doubled := Footprint{}
		split := Footprint{}
		for _, r := range base {
			doubled = append(doubled, Region{Rect: r.Rect, Weight: 2 * r.Weight})
			split = append(split, r, r)
		}
		if a, b := Norm(doubled), Norm(split); !almostEq(a, b) {
			t.Fatalf("trial %d: norms differ: %v vs %v", trial, a, b)
		}
		a := Similarity(doubled, other)
		b := Similarity(split, other)
		if !almostEq(a, b) {
			t.Fatalf("trial %d: similarities differ: %v vs %v", trial, a, b)
		}
	}
}

func TestSimilarityContainment(t *testing.T) {
	// A footprint fully containing another with the same weight:
	// similarity is |small| / (|big|^0.5 * |small|^0.5) scaled by
	// frequencies — verify against the naive oracle and check it is
	// strictly between 0 and 1 when the containment is proper.
	big := Footprint{reg(0, 0, 10, 10, 1)}
	small := Footprint{reg(2, 2, 4, 4, 1)}
	got := Similarity(big, small)
	want := 4.0 / (10 * 2) // |∩|=4, norms 10 and 2
	if !almostEq(got, want) {
		t.Errorf("containment similarity = %v, want %v", got, want)
	}
}

func TestTranslateFootprint(t *testing.T) {
	f := Footprint{reg(0, 0, 1, 1, 2)}
	g := f.Translate(3, 4)
	if g[0].Rect != rect(3, 4, 4, 5) || g[0].Weight != 2 {
		t.Errorf("Translate = %+v", g)
	}
	// Original untouched.
	if f[0].Rect != rect(0, 0, 1, 1) {
		t.Error("Translate mutated the receiver")
	}
}

func TestCompactPreservesSimilarity(t *testing.T) {
	// Compaction to the disjoint-region representation (Section 5.1)
	// must preserve the norm and every similarity exactly.
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 50; trial++ {
		f := randFootprint(rng, 1+rng.Intn(15), 10)
		g := randFootprint(rng, 1+rng.Intn(15), 10)
		cf := Compact(f)
		if !almostEq(Norm(cf), Norm(f)) {
			t.Fatalf("trial %d: compaction changed norm: %v vs %v", trial, Norm(cf), Norm(f))
		}
		// Compacted regions are pairwise disjoint.
		for i := range cf {
			for j := i + 1; j < len(cf); j++ {
				if cf[i].Rect.IntersectionArea(cf[j].Rect) > 1e-12 {
					t.Fatalf("trial %d: compacted regions overlap", trial)
				}
			}
		}
		want := Similarity(f, g)
		if got := Similarity(cf, g); !almostEq(got, want) {
			t.Fatalf("trial %d: sim(Compact(f), g) = %v, want %v", trial, got, want)
		}
		if got := Similarity(cf, Compact(g)); !almostEq(got, want) {
			t.Fatalf("trial %d: sim of both compacted = %v, want %v", trial, got, want)
		}
	}
}

func TestSimilarityTransposeInvariant(t *testing.T) {
	// The sweep axis is an implementation choice ("pick a sorting
	// dimension, e.g. the x-axis"); transposing both footprints
	// swaps the roles of the axes and must not change the result.
	transpose := func(f Footprint) Footprint {
		g := make(Footprint, len(f))
		for i, r := range f {
			g[i] = Region{
				Rect: geom.Rect{
					MinX: r.Rect.MinY, MinY: r.Rect.MinX,
					MaxX: r.Rect.MaxY, MaxY: r.Rect.MaxX,
				},
				Weight: r.Weight,
			}
		}
		return g
	}
	rng := rand.New(rand.NewSource(556))
	for trial := 0; trial < 50; trial++ {
		f := randFootprint(rng, 1+rng.Intn(12), 10)
		g := randFootprint(rng, 1+rng.Intn(12), 10)
		if !almostEq(Similarity(f, g), Similarity(transpose(f), transpose(g))) {
			t.Fatalf("trial %d: transpose changed similarity", trial)
		}
		if !almostEq(Norm(f), Norm(transpose(f))) {
			t.Fatalf("trial %d: transpose changed norm", trial)
		}
	}
}

// scaleRect multiplies every coordinate of r by s.
func scaleRect(r geom.Rect, s float64) geom.Rect {
	return geom.Rect{MinX: r.MinX * s, MinY: r.MinY * s, MaxX: r.MaxX * s, MaxY: r.MaxY * s}
}
