package workflow

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
)

// diamondSpec builds source -> {mid1, mid2} -> sink: the smallest workflow
// with genuinely independent branches. Each mid stage computes `work`
// units; payload bytes flow along every edge.
func diamondSpec(work float64, payload int) *Spec {
	write := func(ctx *Ctx, path string) error {
		w, err := ctx.FM.Create(path)
		if err != nil {
			return err
		}
		if _, err := w.Write(make([]byte, payload)); err != nil {
			return err
		}
		return w.Close()
	}
	read := func(ctx *Ctx, path string) error {
		r, err := ctx.FM.Open(path)
		if err != nil {
			return err
		}
		defer r.Close()
		n, err := io.Copy(io.Discard, r)
		if err != nil {
			return err
		}
		if n != int64(payload) {
			return fmt.Errorf("%s: read %d bytes, want %d", path, n, payload)
		}
		return nil
	}
	mid := func(in, out string) func(*Ctx) error {
		return func(ctx *Ctx) error {
			if err := read(ctx, in); err != nil {
				return err
			}
			ctx.Compute(work)
			return write(ctx, out)
		}
	}
	return &Spec{Name: "diamond", Components: []Component{
		{Name: "source", Machine: "brecca", Outputs: []string{"src.dat"}, WorkHint: 5,
			Run: func(ctx *Ctx) error { ctx.Compute(5); return write(ctx, "src.dat") }},
		{Name: "mid1", Machine: "dione", Inputs: []string{"src.dat"}, Outputs: []string{"m1.dat"}, WorkHint: work,
			Run: mid("src.dat", "m1.dat")},
		{Name: "mid2", Machine: "freak", Inputs: []string{"src.dat"}, Outputs: []string{"m2.dat"}, WorkHint: work,
			Run: mid("src.dat", "m2.dat")},
		{Name: "sink", Machine: "brecca", Inputs: []string{"m1.dat", "m2.dat"}, WorkHint: 5,
			Run: func(ctx *Ctx) error {
				for _, in := range []string{"m1.dat", "m2.dat"} {
					if err := read(ctx, in); err != nil {
						return err
					}
				}
				ctx.Compute(5)
				return nil
			}},
	}}
}

// runSpec executes spec under CouplingSequential on a fresh grid, applying
// mutate to the runner first.
func runSpec(t *testing.T, spec *Spec, mutate func(*Runner)) *Report {
	t.Helper()
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	runner := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	if mutate != nil {
		mutate(runner)
	}
	var report *Report
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		report, err = runner.Run(spec, CouplingSequential)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	return report
}

func overlaps(a, b Timing) bool { return a.Start < b.Finish && b.Start < a.Finish }

func TestDAGRunsIndependentBranchesConcurrently(t *testing.T) {
	rep := runSpec(t, diamondSpec(30, 64<<10), nil)
	m1, _ := rep.Timing("mid1")
	m2, _ := rep.Timing("mid2")
	if !overlaps(m1, m2) {
		t.Errorf("independent branches did not overlap:\n%s", rep)
	}
	serial := runSpec(t, diamondSpec(30, 64<<10), func(r *Runner) { r.Serial = true })
	if rep.Total >= serial.Total {
		t.Errorf("DAG (%v) not faster than serial (%v)", rep.Total, serial.Total)
	}
	// Dependencies still hold.
	src, _ := rep.Timing("source")
	sink, _ := rep.Timing("sink")
	if m1.Start < src.Finish || m2.Start < src.Finish || sink.Start < m1.Finish || sink.Start < m2.Finish {
		t.Errorf("dependency violated:\n%s", rep)
	}
}

func TestDAGIsDeterministic(t *testing.T) {
	a := runSpec(t, diamondSpec(30, 64<<10), nil)
	b := runSpec(t, diamondSpec(30, 64<<10), nil)
	if a.Total != b.Total {
		t.Errorf("two identical DAG runs differ: %v vs %v", a.Total, b.Total)
	}
}

func TestSerialExecutorMatchesDAGOnChains(t *testing.T) {
	// A pure chain has no branch parallelism: the DAG scheduler at
	// MaxPerMachine=1 must reproduce the serial executor's timing exactly.
	chain := func() *Spec { return pipeSpec([3]string{"brecca", "dione", "freak"}, 30, 30, 4096) }
	dag := runSpec(t, chain(), nil)
	serial := runSpec(t, chain(), func(r *Runner) { r.Serial = true })
	if dag.Total != serial.Total {
		t.Errorf("chain timing differs: DAG %v vs serial %v", dag.Total, serial.Total)
	}
}

// sleepPair is two independent stages on one machine, each sleeping d.
func sleepPair(d time.Duration) *Spec {
	mk := func() func(*Ctx) error {
		return func(ctx *Ctx) error {
			ctx.Clock.Sleep(d)
			return nil
		}
	}
	return &Spec{Name: "pair", Components: []Component{
		{Name: "p1", Machine: "brecca", Run: mk()},
		{Name: "p2", Machine: "brecca", Run: mk()},
	}}
}

func TestAdmissionControlDefaultsToOnePerMachine(t *testing.T) {
	rep := runSpec(t, sleepPair(10*time.Second), nil)
	p1, _ := rep.Timing("p1")
	p2, _ := rep.Timing("p2")
	if overlaps(p1, p2) {
		t.Errorf("co-located stages overlapped at MaxPerMachine=1:\n%s", rep)
	}
	if rep.Total < 20*time.Second {
		t.Errorf("total %v, want >= 20s (serialized sleeps)", rep.Total)
	}
}

func TestAdmissionControlRaisedCap(t *testing.T) {
	rep := runSpec(t, sleepPair(10*time.Second), func(r *Runner) { r.MaxPerMachine = 2 })
	p1, _ := rep.Timing("p1")
	p2, _ := rep.Timing("p2")
	if !overlaps(p1, p2) {
		t.Errorf("co-located stages did not overlap at MaxPerMachine=2:\n%s", rep)
	}
	if rep.Total > 11*time.Second {
		t.Errorf("total %v, want ~10s (concurrent sleeps)", rep.Total)
	}
}

func TestDAGFailureDrainsInFlightAndStopsDispatch(t *testing.T) {
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	runner := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	var ranMu sync.Mutex
	ran := map[string]bool{}
	note := func(name string) {
		ranMu.Lock()
		ran[name] = true
		ranMu.Unlock()
	}
	spec := &Spec{Name: "drain", Components: []Component{
		{Name: "bad", Machine: "brecca", Outputs: []string{"a.out"}, Run: func(ctx *Ctx) error {
			note("bad")
			return fmt.Errorf("bad failed")
		}},
		{Name: "slow", Machine: "dione", Outputs: []string{"b.out"}, Run: func(ctx *Ctx) error {
			note("slow")
			ctx.Clock.Sleep(10 * time.Second)
			return nil
		}},
		{Name: "after", Machine: "brecca", Inputs: []string{"a.out", "b.out"}, Run: func(ctx *Ctx) error {
			note("after")
			return nil
		}},
	}}
	var runErr error
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		_, runErr = runner.Run(spec, CouplingSequential)
	})
	if runErr == nil || !strings.Contains(runErr.Error(), "bad failed") {
		t.Fatalf("err = %v, want the failing component's error", runErr)
	}
	if !ran["bad"] || !ran["slow"] {
		t.Errorf("independent roots should both have been dispatched: %v", ran)
	}
	if ran["after"] {
		t.Error("downstream stage dispatched after a failure")
	}
}

func TestCriticalPaths(t *testing.T) {
	spec := &Spec{Name: "cp", Components: []Component{
		{Name: "a", WorkHint: 1, Outputs: []string{"a.out"}},
		{Name: "b", WorkHint: 2, Inputs: []string{"a.out"}, Outputs: []string{"b.out"}},
		{Name: "c", WorkHint: 10, Outputs: []string{"c.out"}},
		{Name: "d", WorkHint: 3, Inputs: []string{"b.out", "c.out"}},
	}}
	cp := criticalPaths(spec)
	want := []float64{6, 5, 13, 3}
	for i, w := range want {
		if cp[i] != w {
			t.Errorf("cp[%s] = %v, want %v", spec.Components[i].Name, cp[i], w)
		}
	}
}

func TestSchedulerEmitsDispatchMetrics(t *testing.T) {
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	o := obs.New(v)
	runner := &Runner{Grid: grid, GNS: gns.NewStore(v), Obs: o}
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		if _, err := runner.Run(diamondSpec(5, 1024), CouplingSequential); err != nil {
			t.Fatal(err)
		}
	})
	snap := o.Snapshot()
	if n := snap.Counters["wf.sched.dispatch.total"]; n != 4 {
		t.Errorf("wf.sched.dispatch.total = %d, want 4", n)
	}
	if snap.Counters["wf.sched.fail.total"] != 0 {
		t.Error("spurious wf.sched.fail.total")
	}
}
