package workflow

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
)

// pipeSpec builds a producer -> filter -> consumer pipeline. Each stage
// computes `work` units spread over `steps` steps and streams `stepBytes`
// per step.
func pipeSpec(machines [3]string, work float64, steps, stepBytes int) *Spec {
	writeStage := func(out string) func(*Ctx) error {
		return func(ctx *Ctx) error {
			w, err := ctx.FM.Create(out)
			if err != nil {
				return err
			}
			block := make([]byte, stepBytes)
			for i := 0; i < steps; i++ {
				ctx.Compute(work / float64(steps))
				if _, err := w.Write(block); err != nil {
					return err
				}
			}
			return w.Close()
		}
	}
	filterStage := func(in, out string) func(*Ctx) error {
		return func(ctx *Ctx) error {
			r, err := ctx.FM.Open(in)
			if err != nil {
				return err
			}
			defer r.Close()
			w, err := ctx.FM.Create(out)
			if err != nil {
				return err
			}
			buf := make([]byte, stepBytes)
			for {
				n, rerr := io.ReadFull(r, buf)
				if n > 0 {
					ctx.Compute(work / float64(steps))
					if _, werr := w.Write(buf[:n]); werr != nil {
						return werr
					}
				}
				if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
					break
				}
				if rerr != nil {
					return rerr
				}
			}
			return w.Close()
		}
	}
	readStage := func(in string) func(*Ctx) error {
		return func(ctx *Ctx) error {
			r, err := ctx.FM.Open(in)
			if err != nil {
				return err
			}
			defer r.Close()
			buf := make([]byte, stepBytes)
			total := 0
			for {
				n, rerr := r.Read(buf)
				total += n
				if n > 0 {
					ctx.Compute(work / float64(steps) * float64(n) / float64(stepBytes))
				}
				if rerr == io.EOF {
					break
				}
				if rerr != nil {
					return rerr
				}
			}
			if total != steps*stepBytes {
				return fmt.Errorf("consumer read %d bytes, want %d", total, steps*stepBytes)
			}
			return nil
		}
	}
	return &Spec{
		Name: "pipe",
		Components: []Component{
			{Name: "producer", Machine: machines[0], Outputs: []string{"stage1.dat"}, Run: writeStage("stage1.dat")},
			{Name: "filter", Machine: machines[1], Inputs: []string{"stage1.dat"}, Outputs: []string{"stage2.dat"}, Run: filterStage("stage1.dat", "stage2.dat")},
			{Name: "consumer", Machine: machines[2], Inputs: []string{"stage2.dat"}, Run: readStage("stage2.dat")},
		},
	}
}

// runPipeSized executes the pipeline under a coupling with a given per-step
// payload and returns the report.
func runPipeSized(t *testing.T, machines [3]string, coupling Coupling, stepBytes int) *Report {
	t.Helper()
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	runner := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	var report *Report
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		report, err = runner.Run(pipeSpec(machines, 30, 30, stepBytes), coupling)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	return report
}

// runPipe is runPipeSized with the paper's 4096-byte blocks.
func runPipe(t *testing.T, machines [3]string, coupling Coupling) *Report {
	t.Helper()
	return runPipeSized(t, machines, coupling, 4096)
}

func TestSequentialOrdering(t *testing.T) {
	rep := runPipe(t, [3]string{"brecca", "brecca", "brecca"}, CouplingSequential)
	p, _ := rep.Timing("producer")
	f, _ := rep.Timing("filter")
	c, _ := rep.Timing("consumer")
	if !(p.Finish <= f.Start && f.Finish <= c.Start) {
		t.Errorf("stages overlap in sequential mode:\n%s", rep)
	}
	// Total is roughly the sum of the three stages' compute (90 units at
	// speed 1.0) plus file IO.
	if rep.Total < 90*time.Second || rep.Total > 100*time.Second {
		t.Errorf("sequential total = %v, want ~90s", rep.Total)
	}
}

func TestBuffersOverlapStages(t *testing.T) {
	rep := runPipe(t, [3]string{"brecca", "vpac27", "dione"}, CouplingBuffers)
	p, _ := rep.Timing("producer")
	c, _ := rep.Timing("consumer")
	if c.Start > p.Start+time.Second {
		t.Errorf("consumer did not start with producer:\n%s", rep)
	}
	// On three machines the three 30-unit stages run genuinely in
	// parallel; the slowest stage is dione's consumer (30/0.584 = 51s), so
	// the total must be far below the 160s-ish sequential sum.
	seq := runPipe(t, [3]string{"brecca", "vpac27", "dione"}, CouplingSequential)
	if rep.Total >= seq.Total {
		t.Errorf("buffers (%v) not faster than sequential (%v) across machines", rep.Total, seq.Total)
	}
}

func TestConcurrentFilesWaitForMarkers(t *testing.T) {
	rep := runPipe(t, [3]string{"brecca", "brecca", "brecca"}, CouplingFiles)
	p, _ := rep.Timing("producer")
	f, _ := rep.Timing("filter")
	// All started together...
	if f.Start > time.Second {
		t.Errorf("filter start = %v, want ~0 (concurrent launch)", f.Start)
	}
	// ...but the filter's work happens only after the producer closes: its
	// finish must come after the producer's.
	if f.Finish <= p.Finish {
		t.Errorf("filter finished before producer:\n%s", rep)
	}
}

func TestConcurrentFilesSlowerThanSequentialOnOneBox(t *testing.T) {
	seq := runPipe(t, [3]string{"jagan", "jagan", "jagan"}, CouplingSequential)
	files := runPipe(t, [3]string{"jagan", "jagan", "jagan"}, CouplingFiles)
	if files.Total <= seq.Total {
		t.Errorf("concurrent files (%v) not slower than sequential (%v): polling should cost",
			files.Total, seq.Total)
	}
}

func TestBuffersBeatConcurrentFilesOnOneBox(t *testing.T) {
	// With a data-heavy stream (the paper's coupling files are ~20 MB),
	// buffers skip the disk round trips that files mode pays twice per
	// intermediate. On a machine with a small multiprogramming penalty
	// (freak) that saving dominates, as in the paper's Table 4.
	one := [3]string{"freak", "freak", "freak"}
	files := runPipeSized(t, one, CouplingFiles, 1<<20)
	bufs := runPipeSized(t, one, CouplingBuffers, 1<<20)
	if bufs.Total >= files.Total {
		t.Errorf("buffers (%v) not faster than concurrent files (%v)", bufs.Total, files.Total)
	}
}

func TestCrossMachineStagingDelivers(t *testing.T) {
	// Sequential across machines exercises the ModeCopy staging path.
	rep := runPipe(t, [3]string{"brecca", "dione", "freak"}, CouplingSequential)
	if rep.Total <= 0 {
		t.Error("no time elapsed")
	}
	c, _ := rep.Timing("consumer")
	if c.Finish != rep.Total {
		t.Errorf("consumer finish %v != total %v", c.Finish, rep.Total)
	}
}

func TestTopoOrder(t *testing.T) {
	spec := &Spec{Name: "t", Components: []Component{
		{Name: "c", Inputs: []string{"b.out"}},
		{Name: "a", Outputs: []string{"a.out"}},
		{Name: "b", Inputs: []string{"a.out"}, Outputs: []string{"b.out"}},
	}}
	order, err := spec.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, idx := range order {
		pos[spec.Components[idx].Name] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Errorf("order = %v", order)
	}
}

func TestCycleDetection(t *testing.T) {
	spec := &Spec{Name: "cycle", Components: []Component{
		{Name: "a", Inputs: []string{"b.out"}, Outputs: []string{"a.out"}},
		{Name: "b", Inputs: []string{"a.out"}, Outputs: []string{"b.out"}},
	}}
	if _, err := spec.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestDuplicateProducerRejected(t *testing.T) {
	spec := &Spec{Name: "dup", Components: []Component{
		{Name: "a", Outputs: []string{"x"}},
		{Name: "b", Outputs: []string{"x"}},
	}}
	if _, err := spec.producers(); err == nil {
		t.Error("duplicate producer not rejected")
	}
}

func TestDOTOutput(t *testing.T) {
	spec := pipeSpec([3]string{"brecca", "vpac27", "dione"}, 1, 1, 1)
	dot := spec.DOT()
	for _, want := range []string{"digraph", "producer", "filter", "consumer", "stage1.dat", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestBroadcastFanOut(t *testing.T) {
	// One producer, two consumers of the same file via buffers: the
	// broadcast path (paper §3.1 "writer broadcasting to a number of
	// readers").
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	runner := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	consumed := make([]int, 2)
	mkConsumer := func(i int) func(*Ctx) error {
		return func(ctx *Ctx) error {
			r, err := ctx.FM.Open("feed.dat")
			if err != nil {
				return err
			}
			defer r.Close()
			n, err := io.Copy(io.Discard, r)
			consumed[i] = int(n)
			return err
		}
	}
	spec := &Spec{Name: "bcast", Components: []Component{
		{Name: "source", Machine: "brecca", Outputs: []string{"feed.dat"}, Run: func(ctx *Ctx) error {
			w, err := ctx.FM.Create("feed.dat")
			if err != nil {
				return err
			}
			w.Write(make([]byte, 100_000))
			return w.Close()
		}},
		{Name: "sink1", Machine: "dione", Inputs: []string{"feed.dat"}, Run: mkConsumer(0)},
		{Name: "sink2", Machine: "vpac27", Inputs: []string{"feed.dat"}, Run: mkConsumer(1)},
	}}
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		if _, err := runner.Run(spec, CouplingBuffers); err != nil {
			t.Fatal(err)
		}
	})
	if consumed[0] != 100_000 || consumed[1] != 100_000 {
		t.Errorf("broadcast consumed = %v", consumed)
	}
}

func TestReportFormatting(t *testing.T) {
	rep := &Report{
		Workflow: "w", Coupling: CouplingBuffers, Total: 99*time.Minute + 17*time.Second,
		Timings: []Timing{{Name: "x", Machine: "jagan", Finish: time.Hour}},
	}
	s := rep.String()
	if !strings.Contains(s, "01:39:17") || !strings.Contains(s, "jagan") {
		t.Errorf("report:\n%s", s)
	}
	if FormatDuration(61*time.Second) != "00:01:01" {
		t.Error("FormatDuration wrong")
	}
	if _, ok := rep.Timing("nope"); ok {
		t.Error("missing timing reported ok")
	}
}

func TestCouplingString(t *testing.T) {
	if CouplingSequential.String() == "" || CouplingFiles.String() == "" ||
		CouplingBuffers.String() == "" || CouplingObjects.String() == "" ||
		Coupling(9).String() == "" {
		t.Error("coupling names empty")
	}
}

// TestObjectsCouplingDelivers runs the pipeline with every intermediate file
// as a whole object on the object-store service: components co-launch, each
// reader's open blocks until the upstream PUT commits (object visibility is
// the close signal — no markers), and every byte arrives.
func TestObjectsCouplingDelivers(t *testing.T) {
	rep := runPipe(t, [3]string{"brecca", "vpac27", "dione"}, CouplingObjects)
	p, _ := rep.Timing("producer")
	f, _ := rep.Timing("filter")
	c, _ := rep.Timing("consumer")
	// Co-scheduled launch, like buffers...
	if f.Start > time.Second || c.Start > time.Second {
		t.Errorf("stages not co-launched:\n%s", rep)
	}
	// ...but the data dependency holds: a stage's output object commits at
	// its close, so each downstream finish follows its upstream's.
	if f.Finish <= p.Finish || c.Finish <= f.Finish {
		t.Errorf("object coupling broke stage ordering:\n%s", rep)
	}
	// The consumer's internal byte-count check passed (Run returned nil),
	// so the objects delivered every byte.
	if rep.Total <= 0 {
		t.Error("no time elapsed")
	}
}

func TestComponentErrorPropagates(t *testing.T) {
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	runner := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	spec := &Spec{Name: "broken", Components: []Component{
		{Name: "boom", Machine: "brecca", Run: func(*Ctx) error {
			return fmt.Errorf("synthetic failure")
		}},
	}}
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		for _, coupling := range []Coupling{CouplingSequential, CouplingBuffers} {
			_, err := runner.Run(spec, coupling)
			if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
				t.Errorf("[%s] err = %v", coupling, err)
			}
			if err != nil && !strings.Contains(err.Error(), "boom") {
				t.Errorf("[%s] error does not name the component: %v", coupling, err)
			}
		}
	})
}

func TestSequentialStopsAfterFailure(t *testing.T) {
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	runner := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	ran := []string{}
	spec := &Spec{Name: "stop", Components: []Component{
		{Name: "a", Machine: "brecca", Outputs: []string{"x"}, Run: func(ctx *Ctx) error {
			ran = append(ran, "a")
			return fmt.Errorf("a failed")
		}},
		{Name: "b", Machine: "brecca", Inputs: []string{"x"}, Run: func(ctx *Ctx) error {
			ran = append(ran, "b")
			return nil
		}},
	}}
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		if _, err := runner.Run(spec, CouplingSequential); err == nil {
			t.Fatal("no error")
		}
	})
	if len(ran) != 1 || ran[0] != "a" {
		t.Errorf("ran = %v, want only a", ran)
	}
}

func TestMarksRecorded(t *testing.T) {
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	runner := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	spec := &Spec{Name: "marks", Components: []Component{
		{Name: "c", Machine: "brecca", Run: func(ctx *Ctx) error {
			ctx.Clock.Sleep(5 * time.Second)
			ctx.Mark("halfway")
			ctx.Clock.Sleep(5 * time.Second)
			return nil
		}},
	}}
	var rep *Report
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		rep, err = runner.Run(spec, CouplingSequential)
		if err != nil {
			t.Fatal(err)
		}
	})
	m, ok := rep.Mark("c/halfway")
	if !ok || m != 5*time.Second {
		t.Errorf("mark = %v %v", m, ok)
	}
	if _, ok := rep.Mark("c/missing"); ok {
		t.Error("phantom mark")
	}
}

func TestConfigureIsIncrementalGNSOnly(t *testing.T) {
	// Configure must write only GNS entries — running it twice with
	// different couplings leaves the latest binding in force (the paper's
	// "reconfigure by editing the GNS" property).
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	store := gns.NewStore(v)
	runner := &Runner{Grid: grid, GNS: store}
	spec := pipeSpec([3]string{"brecca", "vpac27", "dione"}, 1, 1, 64)
	if err := runner.Configure(spec, CouplingBuffers); err != nil {
		t.Fatal(err)
	}
	m, _ := store.Resolve("brecca", "stage1.dat")
	if m.Mode != gns.ModeBuffer {
		t.Fatalf("after buffers configure: %v", m.Mode)
	}
	if err := runner.Configure(spec, CouplingSequential); err != nil {
		t.Fatal(err)
	}
	m, _ = store.Resolve("brecca", "stage1.dat")
	if m.Mode != gns.ModeLocal {
		t.Fatalf("after sequential configure: %v", m.Mode)
	}
	m, _ = store.Resolve("vpac27", "stage1.dat")
	if m.Mode != gns.ModeCopy || m.RemoteHost != "brecca"+FileServicePort {
		t.Fatalf("consumer mapping: %+v", m)
	}
}

// TestSOAPPortFollowsTransport: the FM template's transport picks the port
// Configure publishes, so the endpoint in the GNS and the protocol the stage
// FMs speak cannot disagree.
func TestSOAPPortFollowsTransport(t *testing.T) {
	v := simclock.NewVirtualDefault()
	spec := pipeSpec([3]string{"brecca", "vpac27", "dione"}, 1, 1, 64)
	for _, tc := range []struct {
		transport core.Transport
		port      string
	}{
		{"", BufferServicePort},
		{core.TransportPerCall, BufferServicePort},
		{core.TransportSOAP, SOAPBufferServicePort},
	} {
		store := gns.NewStore(v)
		runner := &Runner{Grid: testbed.DefaultGrid(v), GNS: store, FM: core.Config{Buffer: core.Buffer{Transport: tc.transport}}}
		if err := runner.Configure(spec, CouplingBuffers); err != nil {
			t.Fatal(err)
		}
		for _, key := range [][2]string{{"brecca", "stage1.dat"}, {"vpac27", "stage1.dat"}, {"vpac27", "stage2.dat"}, {"dione", "stage2.dat"}} {
			m, err := store.Resolve(key[0], key[1])
			if err != nil || m.Mode != gns.ModeBuffer || !strings.HasSuffix(m.BufferHost, tc.port) {
				t.Errorf("transport %q: %s on %s maps to %+v (%v), want a buffer on port %s", tc.transport, key[1], key[0], m, err, tc.port)
			}
		}
	}
}

// TestRunRefusesTemplateWiring: the runner fills the wiring and the hooks of
// every stage FM itself, so a template that sets one is a mistake Run names
// rather than silently overwrites.
func TestRunRefusesTemplateWiring(t *testing.T) {
	v := simclock.NewVirtualDefault()
	for _, tc := range []struct {
		field string
		set   func(*core.Config)
	}{
		{"FM.Machine", func(c *core.Config) { c.Machine = "brecca" }},
		{"FM.GNS", func(c *core.Config) { c.GNS = gns.NewStore(v) }},
		{"FM.Hooks", func(c *core.Config) { c.Hooks.PollCost = func() {} }},
		{"FM.Hooks", func(c *core.Config) { c.Hooks.Prestage = &eagerTracker{} }},
		{"FM.Hooks", func(c *core.Config) { c.Hooks.CloseNotify = func(string) {} }},
		{"FM.Hooks", func(c *core.Config) { c.Hooks.Interrupt = func() error { return nil } }},
	} {
		runner := &Runner{Grid: testbed.DefaultGrid(v), GNS: gns.NewStore(v)}
		tc.set(&runner.FM)
		_, err := runner.Run(pipeSpec([3]string{"brecca", "brecca", "brecca"}, 1, 1, 64), CouplingSequential)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("template setting %s: Run = %v, want an error naming it", tc.field, err)
		}
	}
}

// TestRunnerDeclaresNoFMField: every FM parameter is declared once, in
// core.Config; the Runner passes its template down by value and mirrors none
// of it. GNS and Obs are the runner's own (a gns.Directory it programs, the
// observer it shares), not copies.
func TestRunnerDeclaresNoFMField(t *testing.T) {
	own := map[string]bool{"GNS": true, "Obs": true}
	rt := reflect.TypeOf(Runner{})
	for _, ct := range []reflect.Type{reflect.TypeOf(core.Config{}), reflect.TypeOf(core.Buffer{}), reflect.TypeOf(core.Hooks{})} {
		for i := 0; i < ct.NumField(); i++ {
			name := ct.Field(i).Name
			if _, dup := rt.FieldByName(name); dup && !own[name] {
				t.Errorf("Runner.%s mirrors core.%s.%s: set it on Runner.FM", name, ct.Name(), name)
			}
		}
	}
}
