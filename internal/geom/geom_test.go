package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	const eps = 1e-9
	diff := math.Abs(a - b)
	if diff <= eps {
		return true
	}
	return diff <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// randRect draws a rectangle with coordinates in [-10, 10].
func randRect(r *rand.Rand) Rect {
	x1, x2 := r.Float64()*20-10, r.Float64()*20-10
	y1, y2 := r.Float64()*20-10, r.Float64()*20-10
	return Rect{math.Min(x1, x2), math.Min(y1, y2), math.Max(x1, x2), math.Max(y1, y2)}
}

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEq(got, tt.want) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.p.DistSq(tt.q); !almostEq(got, tt.want*tt.want) {
				t.Errorf("DistSq(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
			}
		})
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 2, 3}
	if got := r.Area(); got != 6 {
		t.Errorf("Area = %v, want 6", got)
	}
	if got := r.Width(); got != 2 {
		t.Errorf("Width = %v, want 2", got)
	}
	if got := r.Height(); got != 3 {
		t.Errorf("Height = %v, want 3", got)
	}
	if got := r.Center(); got != (Point{1, 1.5}) {
		t.Errorf("Center = %v, want (1, 1.5)", got)
	}
	if !almostEq(r.Diagonal(), math.Sqrt(13)) {
		t.Errorf("Diagonal = %v, want sqrt(13)", r.Diagonal())
	}
	if r.IsEmpty() {
		t.Error("non-empty rect reported empty")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Error("empty rect should have zero measures")
	}
	r := Rect{1, 2, 3, 4}
	if e.Extend(r) != r {
		t.Error("Extend(empty, r) != r")
	}
	if r.Extend(e) != r {
		t.Error("Extend(r, empty) != r")
	}
}

func TestDegenerateRect(t *testing.T) {
	// A single point is a valid zero-area rectangle.
	r := Rect{1, 1, 1, 1}
	if r.IsEmpty() {
		t.Error("point rect should not be empty")
	}
	if r.Area() != 0 {
		t.Error("point rect should have zero area")
	}
	if !r.Intersects(Rect{0, 0, 2, 2}) {
		t.Error("point rect should intersect enclosing rect")
	}
	// Touching edges intersect but with zero area.
	a := Rect{0, 0, 1, 1}
	b := Rect{1, 0, 2, 1}
	if !a.Intersects(b) {
		t.Error("touching rects should intersect (closed boxes)")
	}
	if a.IntersectionArea(b) != 0 {
		t.Error("touching rects should have zero intersection area")
	}
}

func TestRectFromPoints(t *testing.T) {
	got := RectFromPoints(Point{1, 5}, Point{3, 2}, Point{2, 4})
	want := Rect{1, 2, 3, 5}
	if got != want {
		t.Errorf("RectFromPoints = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("RectFromPoints() with no points should panic")
		}
	}()
	RectFromPoints()
}

func TestIntersectionCases(t *testing.T) {
	tests := []struct {
		name     string
		a, b     Rect
		wantArea float64
	}{
		{"identical", Rect{0, 0, 2, 2}, Rect{0, 0, 2, 2}, 4},
		{"disjoint x", Rect{0, 0, 1, 1}, Rect{2, 0, 3, 1}, 0},
		{"disjoint y", Rect{0, 0, 1, 1}, Rect{0, 2, 1, 3}, 0},
		{"quarter overlap", Rect{0, 0, 2, 2}, Rect{1, 1, 3, 3}, 1},
		{"contained", Rect{0, 0, 4, 4}, Rect{1, 1, 2, 2}, 1},
		{"cross", Rect{-1, 0, 1, 3}, Rect{-2, 1, 2, 2}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.IntersectionArea(tt.b); !almostEq(got, tt.wantArea) {
				t.Errorf("IntersectionArea = %v, want %v", got, tt.wantArea)
			}
			inter := tt.a.Intersection(tt.b)
			if got := inter.Area(); !almostEq(got, tt.wantArea) {
				t.Errorf("Intersection().Area() = %v, want %v", got, tt.wantArea)
			}
			if (tt.wantArea > 0) != tt.a.Intersects(tt.b) && tt.wantArea > 0 {
				t.Errorf("Intersects inconsistent with positive area")
			}
		})
	}
}

func TestIntersectionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b := randRect(rng), randRect(rng)
		// Symmetry.
		if !almostEq(a.IntersectionArea(b), b.IntersectionArea(a)) {
			t.Fatalf("intersection area not symmetric: %v %v", a, b)
		}
		// Bounded by both areas.
		ia := a.IntersectionArea(b)
		if ia > a.Area()+1e-9 || ia > b.Area()+1e-9 {
			t.Fatalf("intersection area exceeds operand area: %v %v", a, b)
		}
		// Intersection rect consistent with area.
		if !almostEq(a.Intersection(b).Area(), ia) {
			t.Fatalf("Intersection().Area() != IntersectionArea(): %v %v", a, b)
		}
		// Self-intersection is identity.
		if a.Intersection(a) != a {
			t.Fatalf("self-intersection not identity: %v", a)
		}
		// Extend contains both: clipping an operand to it keeps the
		// operand.
		u := a.Extend(b)
		if u.Intersection(a) != a || u.Intersection(b) != b {
			t.Fatalf("Extend does not contain operands: %v %v", a, b)
		}
		// Enlargement is non-negative.
		if a.Enlargement(b) < -1e-9 {
			t.Fatalf("negative enlargement: %v %v", a, b)
		}
	}
}

func TestTranslate(t *testing.T) {
	r := Rect{1, 2, 3, 4}
	if got := r.Translate(10, -1); got != (Rect{11, 1, 13, 3}) {
		t.Errorf("Translate = %v", got)
	}
	// Translation preserves area.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a := randRect(rng)
		dx, dy := rng.Float64()*10, rng.Float64()*10
		if !almostEq(a.Translate(dx, dy).Area(), a.Area()) {
			t.Fatalf("translation changed area of %v", a)
		}
	}
}

func TestIntersectionTranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		a, b := randRect(rng), randRect(rng)
		dx, dy := rng.Float64()*100-50, rng.Float64()*100-50
		got := a.Translate(dx, dy).IntersectionArea(b.Translate(dx, dy))
		want := a.IntersectionArea(b)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("translation changed intersection area: %v vs %v", got, want)
		}
	}
}

func TestMBR(t *testing.T) {
	if !MBR(nil).IsEmpty() {
		t.Error("MBR(nil) should be empty")
	}
	rects := []Rect{{0, 0, 1, 1}, {2, -1, 3, 0.5}, {-1, 0, 0, 2}}
	got := MBR(rects)
	want := Rect{-1, -1, 3, 2}
	if got != want {
		t.Errorf("MBR = %v, want %v", got, want)
	}
	for _, r := range rects {
		if got.Intersection(r) != r {
			t.Errorf("MBR does not contain %v", r)
		}
	}
}

func TestPoint3Dist(t *testing.T) {
	p, q := Point3{0, 0, 0}, Point3{1, 2, 2}
	if !almostEq(p.DistSq(q), 9) {
		t.Errorf("DistSq = %v, want 9", p.DistSq(q))
	}
}

func TestBox3Basics(t *testing.T) {
	b := Box3{0, 0, 0, 2, 3, 4}
	if got := b.IntersectionVolume(b); got != 24 {
		t.Errorf("self IntersectionVolume = %v, want 24", got)
	}
	c := Box3{1, 1, 1, 3, 4, 5}
	if got := b.IntersectionVolume(c); got != 1*2*3 {
		t.Errorf("IntersectionVolume = %v, want 6", got)
	}
	d := Box3{5, 5, 5, 6, 6, 6}
	if b.IntersectionVolume(d) != 0 {
		t.Error("disjoint intersection volume should be 0")
	}
}

func TestBox3FromPoints(t *testing.T) {
	got := Box3FromPoints(Point3{1, 5, 0}, Point3{3, 2, -1}, Point3{2, 4, 7})
	want := Box3{1, 2, -1, 3, 5, 7}
	if got != want {
		t.Errorf("Box3FromPoints = %v, want %v", got, want)
	}
	e := EmptyBox3()
	if e.IntersectionVolume(want) != 0 {
		t.Error("EmptyBox3 should meet nothing")
	}
	if e.ExtendPoint(Point3{1, 2, 3}) != (Box3{1, 2, 3, 1, 2, 3}) {
		t.Error("ExtendPoint(empty, p) != p's box")
	}
}

func TestBox3YZRect(t *testing.T) {
	b := Box3{1, 2, 3, 4, 5, 6}
	got := b.YZRect()
	want := Rect{2, 3, 5, 6}
	if got != want {
		t.Errorf("YZRect = %v, want %v", got, want)
	}
}

func TestBox3IntersectionSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	randBox := func() Box3 {
		p := Point3{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		q := Point3{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		return Box3FromPoints(p, q)
	}
	for i := 0; i < 1000; i++ {
		a, b := randBox(), randBox()
		if !almostEq(a.IntersectionVolume(b), b.IntersectionVolume(a)) {
			t.Fatalf("intersection volume not symmetric: %v %v", a, b)
		}
		iv := a.IntersectionVolume(b)
		if iv > a.IntersectionVolume(a)+1e-9 || iv > b.IntersectionVolume(b)+1e-9 {
			t.Fatalf("intersection volume exceeds operand volume")
		}
	}
}

// TestIntersectionMatchesMathMinMax is the differential test of the
// min/max builtins against the math.Min/math.Max calls they replaced
// in Intersection and IntersectionArea: every bit of every result must
// agree (a NaN for a NaN; which NaN is unspecified on both sides), on
// coordinates biased towards the values where the two could
// differ if the spec were misread — signed zeros, infinities, NaN, and
// magnitudes near both ends of the float64 range — and towards equal
// coordinates (touching edges, zero-extent and duplicate rectangles).
func TestIntersectionMatchesMathMinMax(t *testing.T) {
	refArea := func(r, s Rect) float64 {
		w := math.Min(r.MaxX, s.MaxX) - math.Max(r.MinX, s.MinX)
		if w <= 0 {
			return 0
		}
		h := math.Min(r.MaxY, s.MaxY) - math.Max(r.MinY, s.MinY)
		if h <= 0 {
			return 0
		}
		return w * h
	}
	refIntersection := func(r, s Rect) Rect {
		return Rect{
			MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
			MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
		}
	}
	pool := []float64{
		math.Inf(-1), -1e300, -1, -1e-300, math.Copysign(0, -1), 0,
		5e-324, 1e-300, 0.5, 1, 1e300, math.MaxFloat64, math.Inf(1),
	}
	rng := rand.New(rand.NewSource(97))
	pick := func() float64 { return pool[rng.Intn(len(pool))] }
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}
	for i := 0; i < 200000; i++ {
		r := Rect{pick(), pick(), pick(), pick()}
		s := Rect{pick(), pick(), pick(), pick()}
		if got, want := r.IntersectionArea(s), refArea(r, s); !same(got, want) {
			t.Fatalf("IntersectionArea(%v, %v) = %v (%#x), math.Min/Max give %v (%#x)",
				r, s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := r.Intersection(s), refIntersection(r, s); !same(got.MinX, want.MinX) ||
			!same(got.MinY, want.MinY) || !same(got.MaxX, want.MaxX) || !same(got.MaxY, want.MaxY) {
			t.Fatalf("Intersection(%v, %v) = %v, math.Min/Max give %v", r, s, got, want)
		}
	}
}
