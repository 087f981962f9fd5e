package geom

import (
	"fmt"
	"math"
)

// Point3 is a position in 3D space, used by the Section 8 extension
// where objects move in three spatial dimensions.
type Point3 struct {
	X, Y, Z float64
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point3) DistSq(q Point3) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return dx*dx + dy*dy + dz*dz
}

func (p Point3) String() string {
	return fmt.Sprintf("(%.6g, %.6g, %.6g)", p.X, p.Y, p.Z)
}

// Box3 is a closed axis-aligned box in 3D space. It represents the
// spatial projection of a 4D (space x time) region of interest in the
// Section 8 extension, exactly as Rect represents the 2D projection of
// a 3D region of interest in the base system.
type Box3 struct {
	MinX, MinY, MinZ float64
	MaxX, MaxY, MaxZ float64
}

// Box3FromPoints returns the minimum bounding box of the given points.
// It panics if pts is empty.
func Box3FromPoints(pts ...Point3) Box3 {
	if len(pts) == 0 {
		panic("geom: Box3FromPoints with no points")
	}
	b := Box3{pts[0].X, pts[0].Y, pts[0].Z, pts[0].X, pts[0].Y, pts[0].Z}
	for _, p := range pts[1:] {
		b = b.ExtendPoint(p)
	}
	return b
}

// EmptyBox3 returns the canonical empty box, the identity for
// ExtendPoint.
func EmptyBox3() Box3 {
	inf := math.Inf(1)
	return Box3{inf, inf, inf, -inf, -inf, -inf}
}

// IntersectionVolume returns |b ∩ c|, the volume of the common region.
func (b Box3) IntersectionVolume(c Box3) float64 {
	dx := math.Min(b.MaxX, c.MaxX) - math.Max(b.MinX, c.MinX)
	if dx <= 0 {
		return 0
	}
	dy := math.Min(b.MaxY, c.MaxY) - math.Max(b.MinY, c.MinY)
	if dy <= 0 {
		return 0
	}
	dz := math.Min(b.MaxZ, c.MaxZ) - math.Max(b.MinZ, c.MinZ)
	if dz <= 0 {
		return 0
	}
	return dx * dy * dz
}

// ExtendPoint returns the minimum bounding box of b and p.
func (b Box3) ExtendPoint(p Point3) Box3 {
	return Box3{
		MinX: math.Min(b.MinX, p.X),
		MinY: math.Min(b.MinY, p.Y),
		MinZ: math.Min(b.MinZ, p.Z),
		MaxX: math.Max(b.MaxX, p.X),
		MaxY: math.Max(b.MaxY, p.Y),
		MaxZ: math.Max(b.MaxZ, p.Z),
	}
}

// YZRect returns the projection of b onto the y-z plane as a Rect
// (X = the box's y-range, Y = the box's z-range). The 3D sweep-plane
// algorithms sweep along x and maintain active y-z rectangles.
func (b Box3) YZRect() Rect {
	return Rect{MinX: b.MinY, MinY: b.MinZ, MaxX: b.MaxY, MaxY: b.MaxZ}
}

func (b Box3) String() string {
	return fmt.Sprintf("[%.6g,%.6g]x[%.6g,%.6g]x[%.6g,%.6g]",
		b.MinX, b.MaxX, b.MinY, b.MaxY, b.MinZ, b.MaxZ)
}
