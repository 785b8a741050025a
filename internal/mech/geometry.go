// Package mech implements the paper's mechanical-engineering case study
// (§5.2): the five-program durability pipeline of Figure 5 — CHAMMY,
// PAFEC, MAKE_SF_FILES, FAST and OBJECTIVE — over genuinely computed
// plate-with-hole mechanics.
//
// The physics is simplified relative to the commercial codes the paper
// used (a Kirsch/Inglis-style stress field with a curvature-based stress
// concentration instead of a full finite-element solve, and Paris-law crack
// growth for the Jones method), but each stage consumes and produces real
// numeric data with the paper's file products, so the pipeline's IO graph
// and per-stage compute/IO structure are faithful.
package mech

import (
	"fmt"
	"math"
)

// HoleShape is the parametric hole the optimization explores: a
// superellipse |x/a|^p + |y/b|^p = 1. p=2 is an ellipse; larger p tends to
// a rounded rectangle.
type HoleShape struct {
	A float64 // semi-axis along x
	B float64 // semi-axis along y
	P float64 // superellipse exponent (>= 1)
}

// Validate reports whether the shape is geometrically meaningful.
func (h HoleShape) Validate() error {
	if h.A <= 0 || h.B <= 0 {
		return fmt.Errorf("mech: non-positive semi-axes %g, %g", h.A, h.B)
	}
	if h.P < 1 {
		return fmt.Errorf("mech: superellipse exponent %g < 1", h.P)
	}
	return nil
}

// Radius reports the boundary's polar radius at angle theta.
func (h HoleShape) Radius(theta float64) float64 {
	c, s := math.Cos(theta), math.Sin(theta)
	den := math.Pow(math.Abs(c/h.A), h.P) + math.Pow(math.Abs(s/h.B), h.P)
	return math.Pow(den, -1/h.P)
}

// Point reports the boundary point at angle theta.
func (h HoleShape) Point(theta float64) (x, y float64) {
	r := h.Radius(theta)
	return r * math.Cos(theta), r * math.Sin(theta)
}

// BoundaryPoint is one sampled point of the hole profile, with the local
// curvature PAFEC needs for the stress concentration.
type BoundaryPoint struct {
	Theta     float64
	X, Y      float64
	Curvature float64 // 1/radius-of-curvature, >= 0
}

// Boundary samples n evenly spaced (in theta) boundary points with local
// curvature estimated from finite differences.
func (h HoleShape) Boundary(n int) []BoundaryPoint {
	if n < 3 {
		n = 3
	}
	pts := make([]BoundaryPoint, n)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		x, y := h.Point(theta)
		pts[i] = BoundaryPoint{Theta: theta, X: x, Y: y}
	}
	// Curvature from the circumscribed-circle of consecutive triples.
	for i := range pts {
		p0 := pts[(i+n-1)%n]
		p1 := pts[i]
		p2 := pts[(i+1)%n]
		pts[i].Curvature = curvature(p0.X, p0.Y, p1.X, p1.Y, p2.X, p2.Y)
	}
	return pts
}

// curvature of the circle through three points (Menger curvature).
func curvature(x0, y0, x1, y1, x2, y2 float64) float64 {
	a := math.Hypot(x1-x0, y1-y0)
	b := math.Hypot(x2-x1, y2-y1)
	c := math.Hypot(x2-x0, y2-y0)
	area2 := math.Abs((x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)) // 2*triangle area
	if a*b*c == 0 {
		return 0
	}
	return 2 * area2 / (a * b * c)
}
