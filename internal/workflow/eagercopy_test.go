package workflow

import (
	"fmt"
	"io"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
)

// tailSpec is a two-stage cross-machine pipeline whose producer keeps
// computing for `tail` units after closing its output — the window an
// eager copy hides the transfer in.
func tailSpec(payload int, tail float64, afterClose func(*Ctx)) *Spec {
	return &Spec{Name: "tail", Components: []Component{
		{Name: "producer", Machine: "brecca", Outputs: []string{"out.dat"}, WorkHint: tail,
			Run: func(ctx *Ctx) error {
				w, err := ctx.FM.Create("out.dat")
				if err != nil {
					return err
				}
				if _, err := w.Write(make([]byte, payload)); err != nil {
					return err
				}
				if err := w.Close(); err != nil {
					return err
				}
				if afterClose != nil {
					afterClose(ctx)
				}
				ctx.Compute(tail)
				return nil
			}},
		{Name: "consumer", Machine: "dione", Inputs: []string{"out.dat"}, WorkHint: 1,
			Run: func(ctx *Ctx) error {
				r, err := ctx.FM.Open("out.dat")
				if err != nil {
					return err
				}
				defer r.Close()
				ctx.Mark("input-open")
				n, err := r.Read(make([]byte, payload+1))
				if err != nil && err != io.EOF {
					return err
				}
				if n != payload {
					return fmt.Errorf("consumer read %d bytes, want %d", n, payload)
				}
				return nil
			}},
	}}
}

// runTail executes spec with a shared observer, returning the report and
// final counter snapshot.
func runTail(t *testing.T, spec *Spec, mutate func(*Runner)) (*Report, map[string]int64) {
	t.Helper()
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	o := obs.New(v)
	runner := &Runner{Grid: grid, GNS: gns.NewStore(v), Obs: o}
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
	return report, o.Snapshot().Counters
}

func TestEagerCopyAdoptedAndFaster(t *testing.T) {
	const payload = 2 << 20
	off, cOff := runTail(t, tailSpec(payload, 30, nil), nil)
	on, cOn := runTail(t, tailSpec(payload, 30, nil), func(r *Runner) { r.EagerCopy = true })
	if cOff["wf.eagercopy.start.total"] != 0 {
		t.Error("eager copy started while disabled")
	}
	if cOn["wf.eagercopy.adopt.total"] != 1 || cOn["wf.eagercopy.start.total"] != 1 {
		t.Errorf("eager counters = start %d adopt %d, want 1/1",
			cOn["wf.eagercopy.start.total"], cOn["wf.eagercopy.adopt.total"])
	}
	if cOn["wf.eagercopy.bytes"] != payload {
		t.Errorf("wf.eagercopy.bytes = %d, want %d", cOn["wf.eagercopy.bytes"], payload)
	}
	// The copy runs inside the producer's 30-unit compute tail instead of
	// serializing after it, so the whole run gets faster.
	if on.Total >= off.Total {
		t.Errorf("eager copy (%v) not faster than open-time copy (%v)", on.Total, off.Total)
	}
	// The adopted bytes still count as staged-in traffic.
	if cOn[obs.Key("fm.prestage.adopt.total", "machine", "dione")] != 1 {
		t.Error("FM did not record the prestage adoption")
	}
}

func TestEagerCopyDiscardedAfterRemap(t *testing.T) {
	const payload = 256 << 10
	var runner *Runner
	// After closing out.dat the producer rewrites the consumer's mapping —
	// same coordinates, but Set bumps the version. The eager copy was
	// started under the old version, so the consumer's open must discard
	// it and fall back to the ordinary stage-in.
	remap := func(ctx *Ctx) {
		runner.GNS.Set("dione", "out.dat", gns.Mapping{
			Mode:       gns.ModeCopy,
			RemoteHost: "brecca" + FileServicePort,
			RemotePath: "out.dat",
		})
	}
	_, c := runTail(t, tailSpec(payload, 10, remap), func(r *Runner) {
		r.EagerCopy = true
		runner = r
	})
	if c["wf.eagercopy.discard.total"] != 1 {
		t.Errorf("wf.eagercopy.discard.total = %d, want 1", c["wf.eagercopy.discard.total"])
	}
	if c["wf.eagercopy.adopt.total"] != 0 {
		t.Error("stale eager copy adopted")
	}
	if c[obs.Key("fm.prestage.adopt.total", "machine", "dione")] != 0 {
		t.Error("FM adopted a discarded copy")
	}
}

func TestEagerCopyOffByDefaultIsByteIdenticalTiming(t *testing.T) {
	// The default runner must behave exactly as the pre-scheduler executor
	// on a cross-machine chain — same virtual-time total, no eager events.
	a, c := runTail(t, tailSpec(1<<20, 10, nil), nil)
	b, _ := runTail(t, tailSpec(1<<20, 10, nil), func(r *Runner) { r.Serial = true })
	if a.Total != b.Total {
		t.Errorf("default DAG total %v != serial total %v", a.Total, b.Total)
	}
	for k := range c {
		if len(k) > 3 && k[:3] == "wf." && k != "wf.stage.wall_ms" {
			if k[:9] == "wf.eagerc" {
				t.Errorf("eager metric %s present at defaults", k)
			}
		}
	}
}

// TestEagerCopyDiscardMidFlightCleansStalePath remaps while the eager copy
// is still in flight — no producer tail, multi-MB payload over the slow
// cross-site link — and moves the consumer's local path. The open must park
// until the copy settles before discarding it (so the fallback stage-in
// never races the copy goroutine), land the fallback at the new path, and
// remove the stale bytes the eager copy left at the old one.
func TestEagerCopyDiscardMidFlightCleansStalePath(t *testing.T) {
	const payload = 2 << 20
	var runner *Runner
	remap := func(ctx *Ctx) {
		runner.GNS.Set("dione", "out.dat", gns.Mapping{
			Mode:       gns.ModeCopy,
			RemoteHost: "brecca" + FileServicePort,
			RemotePath: "out.dat",
			LocalPath:  "staged/out.dat",
		})
	}
	_, c := runTail(t, tailSpec(payload, 0, remap), func(r *Runner) {
		r.EagerCopy = true
		runner = r
	})
	if c["wf.eagercopy.discard.total"] != 1 {
		t.Errorf("wf.eagercopy.discard.total = %d, want 1", c["wf.eagercopy.discard.total"])
	}
	if c["wf.eagercopy.adopt.total"] != 0 {
		t.Error("stale eager copy adopted")
	}
	fs := runner.Grid.Machine("dione").FS()
	if vfs.Exists(fs, "out.dat") {
		t.Error("discarded eager copy left stale bytes at the old local path")
	}
	if !vfs.Exists(fs, "staged/out.dat") {
		t.Error("fallback stage-in did not land at the remapped local path")
	}
}

// TestEagerTrackerDiscardWaitsForInFlightCopy pins the rule that even a
// claim refused for a mapping mismatch waits for the copy to settle: the
// caller's fallback CopyIn may truncate the very file the copy goroutine is
// still writing.
func TestEagerTrackerDiscardWaitsForInFlightCopy(t *testing.T) {
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	r := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	tr := newEagerTracker(r, tailSpec(1024, 0, nil))
	started := gns.Mapping{Mode: gns.ModeCopy, RemoteHost: "brecca" + FileServicePort, Version: 1}
	e := &eagerEntry{mapping: started, done: simclock.NewEvent(v)}
	tr.entries[eagerKey{"dione", "out.dat"}] = e
	v.Run(func() {
		v.Go("eager-copy", func() {
			v.Sleep(5 * time.Second)
			e.done.Set()
		})
		remapped := started
		remapped.Version = 2
		if _, ok := tr.Claim("dione", "out.dat", remapped); ok {
			t.Error("remapped claim adopted")
		}
		if !e.done.IsSet() {
			t.Error("claim refused while the eager copy was still in flight")
		}
	})
}

func TestEagerTrackerClaimOnce(t *testing.T) {
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	r := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	spec := tailSpec(1024, 0, nil)
	tr := newEagerTracker(r, spec)
	mapping := gns.Mapping{Mode: gns.ModeCopy, RemoteHost: "brecca" + FileServicePort, Version: 7}
	e := &eagerEntry{mapping: mapping, done: simclock.NewEvent(v), bytes: 1024}
	e.done.Set()
	tr.entries[eagerKey{"dione", "out.dat"}] = e
	v.Run(func() {
		if n, ok := tr.Claim("dione", "out.dat", mapping); !ok || n != 1024 {
			t.Errorf("first claim = %d/%v, want 1024/true", n, ok)
		}
		if _, ok := tr.Claim("dione", "out.dat", mapping); ok {
			t.Error("second claim of the same entry succeeded")
		}
	})
}

func TestEagerTrackerFailedCopyRefusesClaim(t *testing.T) {
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	r := &Runner{Grid: grid, GNS: gns.NewStore(v)}
	tr := newEagerTracker(r, tailSpec(1024, 0, nil))
	mapping := gns.Mapping{Mode: gns.ModeCopy, RemoteHost: "brecca" + FileServicePort}
	e := &eagerEntry{mapping: mapping, done: simclock.NewEvent(v), failed: true}
	e.done.Set()
	tr.entries[eagerKey{"dione", "out.dat"}] = e
	v.Run(func() {
		if _, ok := tr.Claim("dione", "out.dat", mapping); ok {
			t.Error("failed copy adopted")
		}
	})
}
