// Package geom provides the planar geometry primitives that the antenna
// orientation algorithms are built on: points, vectors, normalized angles,
// counterclockwise angular arithmetic, circular sectors (antenna beams),
// and a handful of classical predicates (orientation, convex hull,
// circumscribed chord bounds).
//
// Angle conventions used throughout the module:
//
//   - All angles are in radians.
//   - Directions are normalized into the half-open interval [0, 2π).
//   - CCW(a, b) is the counterclockwise sweep needed to rotate ray a onto
//     ray b, always in [0, 2π).
//   - Sectors are closed: both bounding rays belong to the sector, with an
//     angular tolerance AngleEps so that zero-spread antennae (pure rays)
//     cover collinear targets robustly under floating point.
package geom

import (
	"fmt"
	"math"
)

// Eps is the default distance tolerance used by predicates that compare
// Euclidean distances.
const Eps = 1e-9

// AngleEps is the default angular tolerance (radians) for sector
// containment and gap comparisons.
const AngleEps = 1e-9

// TwoPi is 2π, the full angular spread of an omnidirectional antenna.
const TwoPi = 2 * math.Pi

// Point is a location in the Euclidean plane.
type Point struct {
	X, Y float64
}

// String renders the point with enough precision for debugging.
func (p Point) String() string {
	return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y)
}

// Add returns the translation of p by the vector v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in inner loops.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool { return p.Dist(q) <= Eps }

// Vec is a displacement in the plane.
type Vec struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z component of the cross product v × w. Positive means
// w lies counterclockwise of v.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Unit returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return Vec{v.X / n, v.Y / n}
}

// Polar returns the point at distance r from origin o in direction theta.
func Polar(o Point, theta, r float64) Point {
	return Point{o.X + r*math.Cos(theta), o.Y + r*math.Sin(theta)}
}

// Dir returns the direction of the ray from u towards v, normalized into
// [0, 2π). Dir of coincident points is 0 by convention.
func Dir(u, v Point) float64 {
	if u == v {
		return 0
	}
	return NormAngle(math.Atan2(v.Y-u.Y, v.X-u.X))
}

// Orientation classifies the turn u -> v -> w: +1 for counterclockwise,
// -1 for clockwise, 0 for (numerically) collinear.
func Orientation(u, v, w Point) int {
	c := v.Sub(u).Cross(w.Sub(u))
	switch {
	case c > Eps:
		return 1
	case c < -Eps:
		return -1
	default:
		return 0
	}
}

// InTriangle reports whether q lies inside (or on the boundary of) the
// triangle a b c.
func InTriangle(q, a, b, c Point) bool {
	d1 := b.Sub(a).Cross(q.Sub(a))
	d2 := c.Sub(b).Cross(q.Sub(b))
	d3 := a.Sub(c).Cross(q.Sub(c))
	hasNeg := d1 < -Eps || d2 < -Eps || d3 < -Eps
	hasPos := d1 > Eps || d2 > Eps || d3 > Eps
	return !(hasNeg && hasPos)
}

// ChordBound returns the maximum possible distance between two points that
// are both within distance edgeLen of a common apex and subtend angle theta
// at it: 2·edgeLen·sin(θ/2) for θ ∈ [π/3, π], and edgeLen·max(1, …) outside
// that range the caller should not rely on it. This is Fact 1.2 of the
// paper specialized to unit edges.
func ChordBound(theta, edgeLen float64) float64 {
	if theta < 0 {
		theta = 0
	}
	if theta > math.Pi {
		theta = math.Pi
	}
	return 2 * edgeLen * math.Sin(theta/2)
}

// Midpoint returns the midpoint of segment pq.
func Midpoint(p, q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// Centroid returns the arithmetic mean of pts. It returns the origin for an
// empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{sx / n, sy / n}
}

// BoundingBox returns the min and max corners of the axis-aligned bounding
// box of pts. Both corners are the origin for an empty slice.
func BoundingBox(pts []Point) (min, max Point) {
	if len(pts) == 0 {
		return Point{}, Point{}
	}
	min, max = pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	return min, max
}
