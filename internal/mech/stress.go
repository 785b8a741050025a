package mech

import (
	"math"
	"strconv"
	"strings"
)

// Tensor is a 2D stress state.
type Tensor struct {
	Srr, Stt, Srt float64
}

// VonMises reports the von Mises equivalent stress for the plane-stress
// tensor.
func (t Tensor) VonMises() float64 {
	return math.Sqrt(t.Srr*t.Srr - t.Srr*t.Stt + t.Stt*t.Stt + 3*t.Srt*t.Srt)
}

// KirschStress evaluates the classical Kirsch solution for an infinite
// plate with a circular hole of radius R under remote uniaxial tension S
// along x, in polar coordinates (r, theta). For r < R it returns the zero
// tensor (inside the hole).
func KirschStress(S, R, r, theta float64) Tensor {
	if r < R {
		return Tensor{}
	}
	q2 := (R / r) * (R / r)
	q4 := q2 * q2
	c2 := math.Cos(2 * theta)
	s2 := math.Sin(2 * theta)
	return Tensor{
		Srr: S/2*(1-q2) + S/2*(1-4*q2+3*q4)*c2,
		Stt: S/2*(1+q2) - S/2*(1+3*q4)*c2,
		Srt: -S / 2 * (1 + 2*q2 - 3*q4) * s2,
	}
}

// BoundaryStress evaluates the hoop stress along the hole boundary. For a
// circular hole it is the exact Kirsch boundary value S(1 - 2cos2θ); for
// other shapes the concentration is corrected with the local radius of
// curvature in the Inglis/Peterson style, Kt ≈ 1 + 2·sqrt(b/ρ), applied at
// the points where the circular solution peaks.
func BoundaryStress(S float64, shape HoleShape, pts []BoundaryPoint) []float64 {
	out := make([]float64, len(pts))
	refCurv := 1.0 / shape.B // curvature of the b-circle at the peak points
	for i, p := range pts {
		base := S * (1 - 2*math.Cos(2*p.Theta))
		// Scale the tensile peaks by the sharpness of the actual profile
		// relative to a circle of radius B.
		if base > 0 && p.Curvature > 0 && refCurv > 0 {
			kt := (1 + 2*math.Sqrt(shape.B*p.Curvature)) / 3.0
			base *= kt * (3.0 * shape.B * refCurv / (1 + 2*math.Sqrt(shape.B*refCurv)))
		}
		out[i] = base
	}
	return out
}

// FieldPoint is one sample of the stress field.
type FieldPoint struct {
	X, Y   float64
	Stress Tensor
}

// StressField samples the Kirsch-type field on a rows x cols Cartesian grid
// covering [-extent, extent]^2 around the hole, using the hole's mean
// radius as the effective circular radius. This is the field PAFEC writes
// to JOB.O02 and the data behind the paper's Figure 6 picture.
func StressField(S float64, shape HoleShape, rows, cols int, extent float64) []FieldPoint {
	if rows < 2 || cols < 2 {
		return nil
	}
	// Effective circular radius: preserve the hole area.
	rEff := math.Sqrt(shape.A * shape.B)
	out := make([]FieldPoint, 0, rows*cols)
	for i := 0; i < rows; i++ {
		y := -extent + 2*extent*float64(i)/float64(rows-1)
		for j := 0; j < cols; j++ {
			x := -extent + 2*extent*float64(j)/float64(cols-1)
			r := math.Hypot(x, y)
			theta := math.Atan2(y, x)
			out = append(out, FieldPoint{X: x, Y: y, Stress: KirschStress(S, rEff, r, theta)})
		}
	}
	return out
}

// StressRow computes one grid row of the field without materializing the
// whole field — the streaming form PAFEC uses so its output can be piped
// block-by-block into a Grid Buffer.
func StressRow(S float64, shape HoleShape, rows, cols, row int, extent float64, dst []Tensor) []Tensor {
	if cap(dst) < cols {
		dst = make([]Tensor, cols)
	}
	dst = dst[:cols]
	rEff := math.Sqrt(shape.A * shape.B)
	y := -extent + 2*extent*float64(row)/float64(rows-1)
	for j := 0; j < cols; j++ {
		x := -extent + 2*extent*float64(j)/float64(cols-1)
		dst[j] = KirschStress(S, rEff, math.Hypot(x, y), math.Atan2(y, x))
	}
	return dst
}

// RenderPGM renders the von Mises magnitude of a field as a binary PGM
// image (the Figure 6 stress-distribution picture).
func RenderPGM(field []FieldPoint, rows, cols int) []byte {
	if len(field) != rows*cols || rows == 0 {
		return nil
	}
	maxV := 0.0
	for _, p := range field {
		if v := p.Stress.VonMises(); v > maxV {
			maxV = v
		}
	}
	out := []byte("P5\n" + strconv.Itoa(cols) + " " + strconv.Itoa(rows) + "\n255\n")
	for _, p := range field {
		v := 0.0
		if maxV > 0 {
			v = p.Stress.VonMises() / maxV
		}
		out = append(out, byte(math.Round(v*255)))
	}
	return out
}

// RenderASCII renders the field as a coarse ASCII heat map for terminal
// output.
func RenderASCII(field []FieldPoint, rows, cols, outRows, outCols int) string {
	if len(field) != rows*cols || outRows <= 0 || outCols <= 0 {
		return ""
	}
	shades := []byte(" .:-=+*#%@")
	maxV := 0.0
	for _, p := range field {
		if v := p.Stress.VonMises(); v > maxV {
			maxV = v
		}
	}
	var b strings.Builder
	for i := 0; i < outRows; i++ {
		for j := 0; j < outCols; j++ {
			si := i * rows / outRows
			sj := j * cols / outCols
			v := field[si*cols+sj].Stress.VonMises()
			idx := 0
			if maxV > 0 {
				idx = int(v / maxV * float64(len(shades)-1))
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
