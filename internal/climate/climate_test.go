package climate

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/workflow"
)

func TestFieldAccessors(t *testing.T) {
	f := NewField(4)
	f.Set(1, 2, 7)
	if f.At(1, 2) != 7 {
		t.Error("set/get failed")
	}
	// Periodic in x.
	f.Set(0, 0, 3)
	if f.At(0, 4) != 3 || f.At(0, -4) != 3 {
		t.Error("x not periodic")
	}
	// Clamped in y.
	f.Set(3, 1, 9)
	if f.At(10, 1) != 9 {
		t.Error("y not clamped")
	}
}

func TestDiffusionSmoothsAndIsStable(t *testing.T) {
	m := &Model{F: NewField(32), Kappa: 0.2}
	m.F.Set(16, 16, 100) // a hot spot
	max0 := m.F.MaxAbs()
	for i := 0; i < 200; i++ {
		m.Step()
		if m.F.MaxAbs() > max0+1e-9 {
			t.Fatalf("step %d: field grew (%g > %g): unstable", i, m.F.MaxAbs(), max0)
		}
	}
	if m.F.MaxAbs() > 10 {
		t.Errorf("hot spot did not diffuse: max %g", m.F.MaxAbs())
	}
}

func TestAdvectionTransports(t *testing.T) {
	m := &Model{F: NewField(32), Kappa: 0, U: 1} // pure advection, CFL=1
	m.F.Set(16, 4, 50)
	for i := 0; i < 8; i++ {
		m.Step()
	}
	// With U=1 the feature moves one cell per step.
	if m.F.At(16, 12) != 50 {
		t.Errorf("feature not advected: value at (16,12) = %g", m.F.At(16, 12))
	}
	if m.F.At(16, 4) != 0 {
		t.Errorf("origin not vacated: %g", m.F.At(16, 4))
	}
}

func TestInteriorConservation(t *testing.T) {
	// Away from the clamped boundary rows, diffusion+advection conserve
	// the field sum (the stencil redistributes only).
	m := &Model{F: NewField(40), Kappa: 0.2, U: 0.5}
	m.F.Set(20, 20, 100)
	m.F.Set(21, 13, 40)
	before := m.F.Sum()
	for i := 0; i < 10; i++ { // feature stays far from rows 0/39
		m.Step()
	}
	after := m.F.Sum()
	if math.Abs(after-before) > 1e-6*math.Abs(before) {
		t.Errorf("sum drifted: %g -> %g", before, after)
	}
}

func TestNudgingConverges(t *testing.T) {
	target := NewField(16)
	for i := range target.Data {
		target.Data[i] = 5
	}
	m := &Model{F: NewField(16), Kappa: 0.05, Nudge: target, NudgeWeight: 0.3}
	for i := 0; i < 100; i++ {
		m.Step()
	}
	st := FieldStats(m.F)
	if math.Abs(st.Mean-5) > 0.01 {
		t.Errorf("nudged mean %g, want ~5", st.Mean)
	}
}

func TestInterpolateExactOnLinearField(t *testing.T) {
	src := NewField(20)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			src.Set(i, j, 2*float64(i)+3*float64(j))
		}
	}
	out := NewField(9)
	if err := Interpolate(src, out, 0.2, 0.7, 0.1, 0.6); err != nil {
		t.Fatal(err)
	}
	// Bilinear interpolation reproduces linear fields exactly.
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			fr := (0.2 + 0.5*float64(i)/8) * 19
			fc := (0.1 + 0.5*float64(j)/8) * 19
			want := 2*fr + 3*fc
			if math.Abs(out.At(i, j)-want) > 1e-9 {
				t.Fatalf("out(%d,%d) = %g want %g", i, j, out.At(i, j), want)
			}
		}
	}
}

func TestInterpolateBadWindow(t *testing.T) {
	src, out := NewField(8), NewField(4)
	for _, w := range [][4]float64{{0.5, 0.5, 0, 1}, {-0.1, 0.5, 0, 1}, {0, 1.5, 0, 1}, {0, 1, 0.9, 0.1}} {
		if err := Interpolate(src, out, w[0], w[1], w[2], w[3]); err == nil {
			t.Errorf("window %v accepted", w)
		}
	}
	// An edge below 2 leaves src no 2x2 cell to read and out no spacing
	// between its first and last sample (0/0: a frame of NaN).
	for _, g := range [][2]int{{1, 4}, {8, 1}, {1, 1}} {
		if err := Interpolate(NewField(g[0]), NewField(g[1]), 0, 1, 0, 1); err == nil {
			t.Errorf("%d -> %d grid accepted", g[0], g[1])
		}
	}
}

func TestFieldStats(t *testing.T) {
	f := NewField(2)
	copy(f.Data, []float64{1, 2, 3, 6})
	st := FieldStats(f)
	if st.Mean != 3 || st.Min != 1 || st.Max != 6 {
		t.Errorf("stats = %+v", st)
	}
	if (FieldStats(NewField(0)) != Stats{}) {
		t.Error("empty stats non-zero")
	}
}

// Property: interpolation output is bounded by the source's min/max
// (bilinear weights are a convex combination).
func TestInterpolationBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		src := NewField(12)
		s := seed
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range src.Data {
			s = s*6364136223846793005 + 1442695040888963407
			v := float64(int16(s >> 32))
			src.Data[i] = v
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		out := NewField(7)
		if err := Interpolate(src, out, 0.1, 0.9, 0.2, 0.8); err != nil {
			return false
		}
		for _, v := range out.Data {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refStep is Model.Step read through Field.At, which clamps and wraps every
// neighbour itself: the reference Step must match bit for bit.
func refStep(m *Model) {
	n := m.F.N
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c := m.F.At(i, j)
			lap := m.F.At(i-1, j) + m.F.At(i+1, j) + m.F.At(i, j-1) + m.F.At(i, j+1) - 4*c
			var adv float64
			if m.U >= 0 {
				adv = -m.U * (c - m.F.At(i, j-1))
			} else {
				adv = -m.U * (m.F.At(i, j+1) - c)
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

// refInterpolate is Interpolate read through Field.At: the reference
// Interpolate must match bit for bit.
func refInterpolate(src, out *Field, r0, r1, c0, c1 float64) {
	ns, no := src.N, out.N
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
			v := src.At(i0, j0)*(1-di)*(1-dj) +
				src.At(i0+1, j0)*di*(1-dj) +
				src.At(i0, j0+1)*(1-di)*dj +
				src.At(i0+1, j0+1)*di*dj
			out.Set(i, j, v)
		}
	}
}

// refSizes are the grid edges the reference comparisons run: the
// degenerate edges where clamping and wrapping fold neighbours onto the
// cell itself, a small interior, TinyParams' regional grid and the paper's.
var refSizes = []int{1, 2, 3, 16, 104}

func randomField(rng *rand.Rand, n int) *Field {
	f := NewField(n)
	for i := range f.Data {
		f.Data[i] = 20 * rng.NormFloat64()
	}
	return f
}

// firstBitDiff returns the first cell where got and want differ in any bit,
// or -1.
func firstBitDiff(got, want *Field) int {
	for k := range want.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			return k
		}
	}
	return -1
}

func TestStepMatchesReference(t *testing.T) {
	for _, n := range refSizes {
		for _, u := range []float64{0.5, 0, -0.7} {
			rng := rand.New(rand.NewSource(int64(n)*1000 + int64(u*10)))
			start, nudge := randomField(rng, n), randomField(rng, n)
			forcing := func(i, j int) float64 { return 0.01 * math.Sin(float64(3*i+j)) }
			model := func() *Model {
				m := &Model{F: NewField(n), Kappa: 0.2, U: u, Forcing: forcing, Nudge: nudge, NudgeWeight: 0.2}
				copy(m.F.Data, start.Data)
				return m
			}
			got, want := model(), model()
			for s := 0; s < 20; s++ {
				got.Step()
				refStep(want)
				if k := firstBitDiff(got.F, want.F); k >= 0 {
					t.Fatalf("n=%d U=%g step %d: cell %d = %v, reference %v", n, u, s, k, got.F.Data[k], want.F.Data[k])
				}
			}
		}
	}
}

func TestInterpolateMatchesReference(t *testing.T) {
	p := DefaultParams()
	windows := [][4]float64{{p.WinR0, p.WinR1, p.WinC0, p.WinC1}, {0, 1, 0, 1}}
	rng := rand.New(rand.NewSource(5))
	for _, ns := range refSizes {
		src := randomField(rng, ns)
		for _, no := range refSizes {
			if ns < 2 || no < 2 {
				continue // rejected; see TestInterpolateBadWindow
			}
			for _, w := range windows {
				got, want := NewField(no), NewField(no)
				if err := Interpolate(src, got, w[0], w[1], w[2], w[3]); err != nil {
					t.Fatalf("%d -> %d over %v: %v", ns, no, w, err)
				}
				refInterpolate(src, want, w[0], w[1], w[2], w[3])
				if k := firstBitDiff(got, want); k >= 0 {
					t.Fatalf("%d -> %d over %v: cell %d = %v, reference %v", ns, no, w, k, got.Data[k], want.Data[k])
				}
			}
		}
	}
}

// runAtmos executes the tiny atmospheric workflow under a coupling.
func runAtmos(t *testing.T, coupling workflow.Coupling, assign Assignment) (string, *workflow.Report) {
	t.Helper()
	return runAtmosWith(t, coupling, assign, "")
}

func runAtmosWith(t *testing.T, coupling workflow.Coupling, assign Assignment, transport core.Transport) (string, *workflow.Report) {
	t.Helper()
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	runner := &workflow.Runner{Grid: grid, GNS: gns.NewStore(v), CacheFiles: CacheFiles(), FM: core.Config{Buffer: core.Buffer{Transport: transport}}}
	var rep *workflow.Report
	v.Run(func() {
		stop, err := workflow.StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		rep, err = runner.Run(WorkflowSpec(TinyParams(), assign), coupling)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	diag, err := ReadDiagnostics(grid.Machine(assign.DARLAM).RawFS())
	if err != nil {
		t.Fatalf("diagnostics: %v", err)
	}
	return diag, rep
}

func TestAtmosEndToEndBuffers(t *testing.T) {
	diag, rep := runAtmos(t, workflow.CouplingBuffers, Split("brecca", "vpac27"))
	if !strings.Contains(diag, "step 11 ") {
		t.Errorf("missing final step:\n%s", diag)
	}
	if !strings.Contains(diag, "climatology ") {
		t.Errorf("missing climatology (the cache re-read):\n%s", diag)
	}
	c, _ := rep.Timing("ccam")
	d, _ := rep.Timing("darlam")
	if d.Start > c.Start+time.Second {
		t.Error("darlam not co-scheduled with ccam")
	}
}

func TestAtmosSameDiagnosticsUnderAllCouplings(t *testing.T) {
	seq, _ := runAtmos(t, workflow.CouplingSequential, AllOn("dione"))
	files, _ := runAtmos(t, workflow.CouplingFiles, AllOn("dione"))
	bufs, _ := runAtmos(t, workflow.CouplingBuffers, AllOn("dione"))
	split, _ := runAtmos(t, workflow.CouplingBuffers, Split("brecca", "bouscat"))
	if seq != files || seq != bufs || seq != split {
		t.Error("diagnostics differ across couplings — coupling changed results")
	}
}

// TestDarlamOutputDigest pins DARLAM's diagnostics byte for byte, under the
// files and the buffers coupling on the simulated testbed: a change to the
// stencil, the interpolation or the simulated disk that claims to compute
// the same thing must leave both digests where they are.
func TestDarlamOutputDigest(t *testing.T) {
	const want = "c98d69dd3d3f5eb614364cba549888448634ecb12ef72f56427360ab19431f79"
	for _, tc := range []struct {
		name     string
		coupling workflow.Coupling
		assign   Assignment
	}{
		{"files", workflow.CouplingFiles, AllOn("dione")},
		{"buffers", workflow.CouplingBuffers, Split("brecca", "vpac27")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diag, _ := runAtmos(t, tc.coupling, tc.assign)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(diag))); got != want {
				t.Errorf("darlam.out sha256 = %s, want %s", got, want)
			}
		})
	}
}

func TestAtmosSequentialOrdering(t *testing.T) {
	_, rep := runAtmos(t, workflow.CouplingSequential, AllOn("brecca"))
	cc, _ := rep.Timing("ccam")
	la, _ := rep.Timing("cc2lam")
	da, _ := rep.Timing("darlam")
	if !(cc.Finish <= la.Start && la.Finish <= da.Start) {
		t.Errorf("sequential stages overlap:\n%s", rep)
	}
}

func TestAtmosOverSOAPTransport(t *testing.T) {
	// The fully faithful mode: Grid Buffer traffic rides SOAP envelopes
	// over HTTP, including DARLAM's cache-file re-read, and produces the
	// identical diagnostics.
	binDiag, _ := runAtmosWith(t, workflow.CouplingBuffers, Split("brecca", "vpac27"), "")
	soapDiag, rep := runAtmosWith(t, workflow.CouplingBuffers, Split("brecca", "vpac27"), core.TransportSOAP)
	if soapDiag != binDiag {
		t.Error("SOAP transport changed the diagnostics")
	}
	if !strings.Contains(soapDiag, "climatology ") {
		t.Error("cache re-read missing over SOAP")
	}
	if rep.Total <= 0 {
		t.Error("no elapsed time")
	}
}
