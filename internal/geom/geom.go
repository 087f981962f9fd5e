// Package geom provides the planar and spatio-temporal geometric
// primitives used throughout the geo-footprint library: points,
// axis-aligned rectangles (the representation of regions of interest),
// and 3D/4D boxes for the spatio-temporal and 3D-space extensions.
//
// All coordinates are float64. Rectangles are closed boxes
// [MinX, MaxX] x [MinY, MaxY]; degenerate (zero-extent) rectangles are
// valid and have zero area.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean (L2) distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between p and q.
// It avoids the square root when only comparisons are needed.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Rect is a closed axis-aligned rectangle [MinX, MaxX] x [MinY, MaxY].
// A Rect with MinX > MaxX or MinY > MaxY is empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// RectFromPoints returns the minimum bounding rectangle of the given
// points. It panics if pts is empty.
func RectFromPoints(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectFromPoints with no points")
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// EmptyRect returns the canonical empty rectangle, the identity for
// Extend: extending it with any rectangle r yields r.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{inf, inf, -inf, -inf}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the x-extent of r, or 0 if r is empty.
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the y-extent of r, or 0 if r is empty.
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r (0 for empty or degenerate rectangles).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Diagonal returns the length of the diagonal of r.
func (r Rect) Diagonal() float64 { return math.Hypot(r.Width(), r.Height()) }

// Intersects reports whether r and s share at least one point
// (closed-box semantics: touching edges intersect).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the common region of r and s. If they do not
// intersect, the result is empty.
func (r Rect) Intersection(s Rect) Rect {
	return Rect{
		MinX: max(r.MinX, s.MinX),
		MinY: max(r.MinY, s.MinY),
		MaxX: min(r.MaxX, s.MaxX),
		MaxY: min(r.MaxY, s.MaxY),
	}
}

// IntersectionArea returns |r ∩ s|, the area of the common region.
// This is the elementary quantity aggregated by the join-based
// similarity computation (Algorithm 4), once per region pair: it uses
// the min/max builtins, which compile inline, where math.Min/math.Max
// are out-of-line calls on amd64. The results are the same bits for
// every input without a NaN, signed zeros and infinities included
// (with one the builtins return NaN where math.Max(+Inf, NaN) is +Inf;
// core.Footprint.Validate rejects NaN coordinates). The hotmath
// analyzer keeps the calls from coming back.
//
//geo:hotpath
func (r Rect) IntersectionArea(s Rect) float64 {
	w := min(r.MaxX, s.MaxX) - max(r.MinX, s.MinX)
	if w <= 0 {
		return 0
	}
	h := min(r.MaxY, s.MaxY) - max(r.MinY, s.MinY)
	if h <= 0 {
		return 0
	}
	return w * h
}

// Extend returns the minimum bounding rectangle of r and s.
func (r Rect) Extend(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// ExtendPoint returns the minimum bounding rectangle of r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	return Rect{
		MinX: math.Min(r.MinX, p.X),
		MinY: math.Min(r.MinY, p.Y),
		MaxX: math.Max(r.MaxX, p.X),
		MaxY: math.Max(r.MaxY, p.Y),
	}
}

// Enlargement returns the area increase of r needed to include s
// (Guttman's insertion criterion).
func (r Rect) Enlargement(s Rect) float64 {
	return r.Extend(s).Area() - r.Area()
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{r.MinX + dx, r.MinY + dy, r.MaxX + dx, r.MaxY + dy}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%.6g,%.6g]x[%.6g,%.6g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// MBR returns the minimum bounding rectangle of a set of rectangles.
// It returns the canonical empty rectangle for an empty input.
func MBR(rects []Rect) Rect {
	m := EmptyRect()
	for _, r := range rects {
		m = m.Extend(r)
	}
	return m
}
