package mech

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"time"

	"griddles/internal/gns"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

func TestHoleShapeCircle(t *testing.T) {
	c := HoleShape{A: 2, B: 2, P: 2}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0, 0.7, math.Pi / 2, 3} {
		if r := c.Radius(theta); math.Abs(r-2) > 1e-9 {
			t.Errorf("circle radius at %g = %g", theta, r)
		}
	}
	// Perimeter approaches 2*pi*r.
	if p := c.Perimeter(10000); math.Abs(p-4*math.Pi) > 1e-3 {
		t.Errorf("perimeter = %g want %g", p, 4*math.Pi)
	}
}

func TestHoleShapeEllipseAxes(t *testing.T) {
	e := HoleShape{A: 3, B: 1, P: 2}
	x, y := e.Point(0)
	if math.Abs(x-3) > 1e-9 || math.Abs(y) > 1e-9 {
		t.Errorf("point(0) = %g,%g", x, y)
	}
	x, y = e.Point(math.Pi / 2)
	if math.Abs(x) > 1e-9 || math.Abs(y-1) > 1e-9 {
		t.Errorf("point(pi/2) = %g,%g", x, y)
	}
}

func TestShapeValidate(t *testing.T) {
	bad := []HoleShape{{A: 0, B: 1, P: 2}, {A: 1, B: -1, P: 2}, {A: 1, B: 1, P: 0.5}}
	for _, s := range bad {
		if s.Validate() == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

func TestBoundaryCurvatureOfCircle(t *testing.T) {
	c := HoleShape{A: 2, B: 2, P: 2}
	pts := c.Boundary(720)
	for _, p := range pts {
		if math.Abs(p.Curvature-0.5) > 1e-3 {
			t.Fatalf("circle curvature at theta %g = %g, want 0.5", p.Theta, p.Curvature)
		}
	}
}

func TestKirschBoundaryValues(t *testing.T) {
	const S, R = 100.0, 1.0
	// Kt = 3 at theta = pi/2 (perpendicular to the load).
	top := KirschStress(S, R, R, math.Pi/2)
	if math.Abs(top.Stt-3*S) > 1e-9 {
		t.Errorf("hoop stress at pi/2 = %g, want %g", top.Stt, 3*S)
	}
	// Compressive -S at theta = 0.
	side := KirschStress(S, R, R, 0)
	if math.Abs(side.Stt+S) > 1e-9 {
		t.Errorf("hoop stress at 0 = %g, want %g", side.Stt, -S)
	}
	// Radial and shear stress vanish on the free boundary.
	for _, theta := range []float64{0, 0.3, 1.1, math.Pi / 2} {
		b := KirschStress(S, R, R, theta)
		if math.Abs(b.Srr) > 1e-9 || math.Abs(b.Srt) > 1e-9 {
			t.Errorf("boundary not traction-free at %g: %+v", theta, b)
		}
	}
	// Inside the hole: zero.
	if (KirschStress(S, R, 0.5, 1) != Tensor{}) {
		t.Error("stress inside hole non-zero")
	}
}

func TestKirschFarField(t *testing.T) {
	const S, R = 100.0, 1.0
	far := KirschStress(S, R, 1000*R, 0.37)
	// Far away the field is uniaxial tension S along x: in polar coords
	// sigma_rr + sigma_tt = S (trace invariant) and von Mises ~ S.
	if math.Abs(far.Srr+far.Stt-S) > 0.01*S {
		t.Errorf("far-field trace = %g, want %g", far.Srr+far.Stt, S)
	}
	if vm := far.VonMises(); math.Abs(vm-S) > 0.01*S {
		t.Errorf("far-field von Mises = %g, want ~%g", vm, S)
	}
}

func TestBoundaryStressCircleMatchesKirsch(t *testing.T) {
	c := HoleShape{A: 1, B: 1, P: 2}
	pts := c.Boundary(360)
	hoop := BoundaryStress(100, c, pts)
	for i, p := range pts {
		want := 100 * (1 - 2*math.Cos(2*p.Theta))
		if math.Abs(hoop[i]-want) > 2 {
			t.Fatalf("hoop at theta %g = %g, want %g", p.Theta, hoop[i], want)
		}
	}
}

func TestEllipseOrientationMatchesInglis(t *testing.T) {
	peak := func(s HoleShape) float64 {
		pts := s.Boundary(1440)
		hoop := BoundaryStress(100, s, pts)
		m := 0.0
		for _, h := range hoop {
			if h > m {
				m = h
			}
		}
		return m
	}
	round := peak(HoleShape{A: 1, B: 1, P: 2})
	// Long axis perpendicular to the (x-direction) load: Inglis peak is
	// S(1 + 2b/a) = 7S at the sharp tips.
	hostile := peak(HoleShape{A: 1, B: 3, P: 2})
	// Long axis parallel to the load: benign, S(1 + 2b/a) = 5S/3.
	benign := peak(HoleShape{A: 3, B: 1, P: 2})
	if math.Abs(round-300) > 3 {
		t.Errorf("circle peak %g, want 300 (Kt=3)", round)
	}
	if math.Abs(hostile-700) > 15 {
		t.Errorf("perpendicular ellipse peak %g, want ~700 (Inglis)", hostile)
	}
	if math.Abs(benign-500.0/3) > 5 {
		t.Errorf("parallel ellipse peak %g, want ~166.7 (Inglis)", benign)
	}
	if !(benign < round && round < hostile) {
		t.Errorf("ordering wrong: %g %g %g", benign, round, hostile)
	}
}

func TestStressFieldAndRenderers(t *testing.T) {
	shape := HoleShape{A: 1, B: 1, P: 2}
	field := StressField(100, shape, 32, 32, 4)
	if len(field) != 32*32 {
		t.Fatalf("field len %d", len(field))
	}
	pgm := RenderPGM(field, 32, 32)
	if !strings.HasPrefix(string(pgm), "P5\n32 32\n255\n") {
		t.Errorf("pgm header: %q", pgm[:20])
	}
	if len(pgm) != len("P5\n32 32\n255\n")+32*32 {
		t.Errorf("pgm size %d", len(pgm))
	}
	ascii := RenderASCII(field, 32, 32, 8, 16)
	if lines := strings.Count(ascii, "\n"); lines != 8 {
		t.Errorf("ascii rows = %d", lines)
	}
}

func TestStressRowMatchesField(t *testing.T) {
	shape := HoleShape{A: 1.4, B: 1, P: 2.4}
	field := StressField(100, shape, 16, 16, 5)
	for row := 0; row < 16; row++ {
		got := StressRow(100, shape, 16, 16, row, 5, nil)
		for j := 0; j < 16; j++ {
			if got[j] != field[row*16+j].Stress {
				t.Fatalf("row %d col %d mismatch", row, j)
			}
		}
	}
}

func TestCyclesToFailureClosedFormVsNumeric(t *testing.T) {
	m := DefaultMaterial()
	for _, ds := range []float64{50, 100, 200} {
		closed := m.CyclesToFailure(ds)
		hist := m.GrowthHistory(ds, 4000)
		numeric := hist[len(hist)-1].N
		if math.Abs(numeric-closed)/closed > 0.01 {
			t.Errorf("dsigma %g: numeric %g vs closed %g", ds, numeric, closed)
		}
	}
}

func TestCyclesMonotonicInStress(t *testing.T) {
	m := DefaultMaterial()
	if !(m.CyclesToFailure(50) > m.CyclesToFailure(100)) {
		t.Error("higher stress should fail sooner")
	}
	if !math.IsInf(m.CyclesToFailure(0), 1) || !math.IsInf(m.CyclesToFailure(-5), 1) {
		t.Error("non-tensile range should never fail")
	}
}

func TestGrowthHistoryShape(t *testing.T) {
	m := DefaultMaterial()
	hist := m.GrowthHistory(100, 50)
	if hist[0].A != m.A0 || hist[0].N != 0 {
		t.Errorf("history start = %+v", hist[0])
	}
	last := hist[len(hist)-1]
	if math.Abs(last.A-m.AF) > 1e-12 {
		t.Errorf("history end a = %g, want %g", last.A, m.AF)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].N < hist[i-1].N || hist[i].A < hist[i-1].A {
			t.Fatalf("history not monotone at %d", i)
		}
	}
}

func TestMaterialValidate(t *testing.T) {
	good := DefaultMaterial()
	if good.Validate() != nil {
		t.Error("default material rejected")
	}
	bad := good
	bad.AF = bad.A0
	if bad.Validate() == nil {
		t.Error("af == a0 accepted")
	}
	bad = good
	bad.C = 0
	if bad.Validate() == nil {
		t.Error("C = 0 accepted")
	}
}

func TestLife(t *testing.T) {
	min, site := Life([]float64{5, 2, 9})
	if min != 2 || site != 1 {
		t.Errorf("life = %g at %d", min, site)
	}
	min, site = Life(nil)
	if !math.IsInf(min, 1) || site != -1 {
		t.Errorf("empty life = %g at %d", min, site)
	}
}

// Property: curvature of any sampled circle is ~1/R regardless of radius.
func TestCurvatureProperty(t *testing.T) {
	f := func(rRaw uint8) bool {
		r := float64(rRaw%50) + 0.5
		c := HoleShape{A: r, B: r, P: 2}
		for _, p := range c.Boundary(360) {
			if math.Abs(p.Curvature-1/r) > 1e-2/r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// runPipeline executes the tiny durability pipeline under a coupling and
// returns the parsed result plus the report.
func runPipeline(t *testing.T, coupling workflow.Coupling, assign Assignment) (Result, *workflow.Report) {
	t.Helper()
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	params := TinyParams()
	if err := Setup(func(m string) vfs.FS { return grid.Machine(m).RawFS() }, assign, params); err != nil {
		t.Fatal(err)
	}
	runner := &workflow.Runner{Grid: grid, GNS: gns.NewStore(v)}
	var rep *workflow.Report
	v.Run(func() {
		stop, err := workflow.StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		rep, err = runner.Run(PipelineSpec(params, assign), coupling)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
	})
	res, err := ReadResult(grid.Machine(assign.Objective).RawFS())
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return res, rep
}

func TestPipelineEndToEndSequential(t *testing.T) {
	res, rep := runPipeline(t, workflow.CouplingSequential, AllOn("brecca"))
	if res.Life <= 0 || math.IsInf(res.Life, 1) {
		t.Errorf("life = %g", res.Life)
	}
	if res.Sites != TinyParams().BoundaryN {
		t.Errorf("sites = %d", res.Sites)
	}
	if rep.Total <= 0 {
		t.Error("no elapsed time")
	}
}

func TestPipelineSameResultUnderAllCouplings(t *testing.T) {
	// The FM's core guarantee: coupling changes rebind IO, never results.
	seq, _ := runPipeline(t, workflow.CouplingSequential, AllOn("brecca"))
	files, _ := runPipeline(t, workflow.CouplingFiles, AllOn("brecca"))
	bufs, _ := runPipeline(t, workflow.CouplingBuffers, AllOn("brecca"))
	dist, _ := runPipeline(t, workflow.CouplingBuffers, Experiment3())
	if seq != files || seq != bufs || seq != dist {
		t.Errorf("results differ across couplings:\nseq   %+v\nfiles %+v\nbufs  %+v\ndist  %+v",
			seq, files, bufs, dist)
	}
}

func TestPipelineBuffersCoScheduled(t *testing.T) {
	_, rep := runPipeline(t, workflow.CouplingBuffers, Experiment3())
	ch, _ := rep.Timing("chammy")
	ob, _ := rep.Timing("objective")
	// Buffer coupling co-schedules all five stages: the last component
	// starts essentially together with the first.
	if ob.Start > ch.Start+2*time.Second {
		t.Errorf("objective started at %v, chammy at %v: not co-scheduled", ob.Start, ch.Start)
	}
}

// Perimeter numerically integrates the boundary length.
func (h HoleShape) Perimeter(n int) float64 {
	if n < 8 {
		n = 8
	}
	var sum float64
	px, py := h.Point(0)
	for i := 1; i <= n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		x, y := h.Point(theta)
		sum += math.Hypot(x-px, y-py)
		px, py = x, y
	}
	return sum
}
