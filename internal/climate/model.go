// Package climate implements the paper's atmospheric-sciences case study
// (§5.3): C-CAM (a global model), cc2lam (the global-to-regional linking
// filter) and DARLAM (a regional model), coupled per-timestep exactly as
// the paper describes — C-CAM writes a block of data each step, cc2lam
// filters it, DARLAM consumes it immediately, and DARLAM re-reads some of
// the input data at the end (the Grid Buffer cache-file path, Figure 6).
//
// The models are reduced-physics stand-ins for CSIRO's codes: explicit
// advection–diffusion of a temperature-like field on a global grid, with
// the regional model nudged toward interpolated boundary data. They are
// genuine time-steppers with testable conservation and stability
// properties; their per-step IO volume and compute cost are calibrated to
// the paper's Table 3.
package climate

import (
	"fmt"
	"math"
)

// Field is a square scalar field (temperature-like) on an n x n grid,
// periodic in the x (longitude) direction and clamped in y (latitude).
type Field struct {
	N    int
	Data []float64
}

// NewField returns a zeroed n x n field.
func NewField(n int) *Field {
	return &Field{N: n, Data: make([]float64, n*n)}
}

// At reads the value at row i, column j (j wraps periodically).
func (f *Field) At(i, j int) float64 {
	j = ((j % f.N) + f.N) % f.N
	if i < 0 {
		i = 0
	}
	if i >= f.N {
		i = f.N - 1
	}
	return f.Data[i*f.N+j]
}

// Set writes the value at row i, column j.
func (f *Field) Set(i, j int, v float64) { f.Data[i*f.N+j] = v }

// Sum reports the field total (used for conservation checks).
func (f *Field) Sum() float64 {
	var s float64
	for _, v := range f.Data {
		s += v
	}
	return s
}

// MaxAbs reports the largest absolute value (stability checks).
func (f *Field) MaxAbs() float64 {
	var m float64
	for _, v := range f.Data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Model is an explicit advection–diffusion stepper.
type Model struct {
	F *Field
	// Kappa is the diffusion coefficient (stability requires
	// Kappa <= 0.25 with the unit grid spacing used here).
	Kappa float64
	// U is the zonal advection velocity in cells per step (|U| <= 1).
	U float64
	// Forcing, if non-nil, is added each step (solar heating etc.).
	Forcing func(i, j int) float64
	// Nudge pulls the field toward a boundary dataset with the given
	// weight (DARLAM's one-way nesting); nil disables it.
	Nudge       *Field
	NudgeWeight float64

	scratch []float64
}

// InitAnalytic fills the field with a smooth planet-like pattern: a
// latitudinal gradient plus a zonal wave.
func (m *Model) InitAnalytic() {
	n := m.F.N
	for i := 0; i < n; i++ {
		lat := (float64(i)/float64(n-1) - 0.5) * math.Pi
		for j := 0; j < n; j++ {
			lon := 2 * math.Pi * float64(j) / float64(n)
			m.F.Set(i, j, 15*math.Cos(lat)+5*math.Sin(3*lon)*math.Cos(lat)*math.Cos(lat))
		}
	}
}

// Step advances the model one time step. Neighbours are clamped and
// wrapped as At does, once per row and once per column rather than per
// read; every floating-point expression keeps At's operand order, so the
// result is bit-identical to reading through At.
func (m *Model) Step() {
	n := m.F.N
	if cap(m.scratch) < n*n {
		m.scratch = make([]float64, n*n)
	}
	out := m.scratch[:n*n]
	d := m.F.Data
	for i := 0; i < n; i++ {
		north, south := max(i-1, 0), min(i+1, n-1)
		row := d[i*n : (i+1)*n]
		above, below := d[north*n:(north+1)*n], d[south*n:(south+1)*n]
		for j := 0; j < n; j++ {
			west, east := j-1, j+1
			if west < 0 {
				west = n - 1
			}
			if east == n {
				east = 0
			}
			c := row[j]
			// Diffusion: 5-point Laplacian.
			lap := above[j] + below[j] + row[west] + row[east] - 4*c
			// Upwind zonal advection.
			var adv float64
			if m.U >= 0 {
				adv = -m.U * (c - row[west])
			} else {
				adv = -m.U * (row[east] - c)
			}
			v := c + m.Kappa*lap + adv
			if m.Forcing != nil {
				v += m.Forcing(i, j)
			}
			if m.Nudge != nil && m.NudgeWeight > 0 {
				v += m.NudgeWeight * (m.Nudge.Data[i*n+j] - v)
			}
			out[i*n+j] = v
		}
	}
	copy(m.F.Data, out)
}

// Interpolate bilinearly samples src onto an out-sized grid covering the
// fractional window [r0,r1) x [c0,c1) of src (the cc2lam global-to-regional
// mapping). Window coordinates are in [0,1], and both grids need an edge of
// at least 2: the mapping places out's first and last samples on the
// window's edges and reads a 2x2 cell of src.
func Interpolate(src *Field, out *Field, r0, r1, c0, c1 float64) error {
	if r1 <= r0 || c1 <= c0 || r0 < 0 || r1 > 1 || c0 < 0 || c1 > 1 {
		return fmt.Errorf("climate: bad window [%g,%g)x[%g,%g)", r0, r1, c0, c1)
	}
	ns, no := src.N, out.N
	if ns < 2 || no < 2 {
		return fmt.Errorf("climate: cannot interpolate a %dx%d grid onto %dx%d: both edges must be at least 2", ns, ns, no, no)
	}
	// i0 and j0 lie in [0, ns-2], so the 2x2 cell never wraps or clamps
	// and src is indexed directly.
	d := src.Data
	for i := 0; i < no; i++ {
		fr := (r0 + (r1-r0)*float64(i)/float64(no-1)) * float64(ns-1)
		i0 := int(fr)
		if i0 >= ns-1 {
			i0 = ns - 2
		}
		di := fr - float64(i0)
		for j := 0; j < no; j++ {
			fc := (c0 + (c1-c0)*float64(j)/float64(no-1)) * float64(ns-1)
			j0 := int(fc)
			if j0 >= ns-1 {
				j0 = ns - 2
			}
			dj := fc - float64(j0)
			k := i0*ns + j0
			v := d[k]*(1-di)*(1-dj) +
				d[k+ns]*di*(1-dj) +
				d[k+1]*(1-di)*dj +
				d[k+ns+1]*di*dj
			out.Data[i*no+j] = v
		}
	}
	return nil
}

// Stats summarizes a field for DARLAM's diagnostic output.
type Stats struct {
	Mean, Min, Max float64
}

// FieldStats computes summary statistics.
func FieldStats(f *Field) Stats {
	if len(f.Data) == 0 {
		return Stats{}
	}
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range f.Data {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(len(f.Data))
	return s
}
