package workflow

import (
	"bytes"
	"errors"
	"testing"

	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
)

// crashPipeSpec is a four-stage cross-machine chain with a deterministic
// terminal output: gen(brecca) -> fold(dione) -> mix(freak) -> pack(brecca),
// PIPE.OUT landing on brecca. Every byte of the terminal file is a function
// of seed only, so two runs are comparable byte for byte.
func crashPipeSpec(seed byte, payload int) *Spec {
	gen := func(n int, mut byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)*7 + seed + mut
		}
		return b
	}
	stage := func(in, out string, mut byte, work float64) func(*Ctx) error {
		return func(ctx *Ctx) error {
			var data []byte
			if in != "" {
				r, err := ctx.FM.Open(in)
				if err != nil {
					return err
				}
				buf := &bytes.Buffer{}
				if _, err := buf.ReadFrom(r); err != nil {
					r.Close()
					return err
				}
				r.Close()
				data = buf.Bytes()
				for i := range data {
					data[i] += mut
				}
			} else {
				data = gen(payload, mut)
			}
			ctx.Compute(work)
			w, err := ctx.FM.Create(out)
			if err != nil {
				return err
			}
			if _, err := w.Write(data); err != nil {
				return err
			}
			return w.Close()
		}
	}
	return &Spec{Name: "pipe", Components: []Component{
		{Name: "gen", Machine: "brecca", Outputs: []string{"G.DAT"}, WorkHint: 4,
			Run: stage("", "G.DAT", 1, 4)},
		{Name: "fold", Machine: "dione", Inputs: []string{"G.DAT"}, Outputs: []string{"F.DAT"}, WorkHint: 4,
			Run: stage("G.DAT", "F.DAT", 2, 4)},
		{Name: "mix", Machine: "freak", Inputs: []string{"F.DAT"}, Outputs: []string{"M.DAT"}, WorkHint: 4,
			Run: stage("F.DAT", "M.DAT", 3, 4)},
		{Name: "pack", Machine: "brecca", Inputs: []string{"M.DAT"}, Outputs: []string{"PIPE.OUT"}, WorkHint: 4,
			Run: stage("M.DAT", "PIPE.OUT", 4, 4)},
	}}
}

// resumeEnv is one simulated world for a crash/resume round.
type resumeEnv struct {
	v    *simclock.Virtual
	grid *testbed.Grid
	gns  *gns.Store
}

func newResumeEnv() *resumeEnv {
	v := simclock.NewVirtualDefault()
	return &resumeEnv{v: v, grid: testbed.DefaultGrid(v), gns: gns.NewStore(v)}
}

// referencePipeOut runs crashPipeSpec uninterrupted and returns the terminal
// bytes — the ground truth every crash/resume round must reproduce.
func referencePipeOut(t *testing.T, seed byte, payload int) []byte {
	t.Helper()
	e := newResumeEnv()
	var out []byte
	e.v.Run(func() {
		stop, err := StartServices(e.v, e.grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		r := &Runner{Grid: e.grid, GNS: e.gns}
		if _, err := r.Run(crashPipeSpec(seed, payload), CouplingSequential); err != nil {
			t.Fatal(err)
		}
		b, err := vfs.ReadFile(e.grid.Machine("brecca").RawFS(), "PIPE.OUT")
		if err != nil {
			t.Fatal(err)
		}
		out = b
	})
	return out
}

func TestResumeValidation(t *testing.T) {
	e := newResumeEnv()
	spec := crashPipeSpec(1, 1<<10)
	e.v.Run(func() {
		stop, err := StartServices(e.v, e.grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		r := &Runner{Grid: e.grid, GNS: e.gns}
		if _, err := r.Resume(spec, CouplingSequential, nil); err == nil {
			t.Error("Resume accepted a nil image")
		}
		img := &RunImage{NStages: 99, States: make([]uint8, 99)}
		if _, err := r.Resume(spec, CouplingSequential, img); err == nil {
			t.Error("Resume accepted an nstages mismatch")
		}
		img = &RunImage{NStages: len(spec.Components), States: make([]uint8, len(spec.Components))}
		if _, err := r.Resume(spec, CouplingSequential, img); err == nil {
			t.Error("Resume accepted a spec hash mismatch")
		}
		img.SpecHash = SpecHash(spec, CouplingSequential)
		serial := &Runner{Grid: e.grid, GNS: e.gns, Serial: true}
		if _, err := serial.Resume(spec, CouplingSequential, img); err == nil {
			t.Error("Resume accepted the serial executor")
		}
		buffered := &Runner{Grid: e.grid, GNS: e.gns, Journal: NewJournal(&MemSink{}, e.v)}
		if _, err := buffered.Run(spec, CouplingBuffers); err == nil {
			t.Error("Run accepted a journal under buffer coupling")
		}
	})
}

// crashResumeRound kills a journaled crashPipeSpec run at kill, optionally tears
// the unsynced journal tail, resumes in the same world, and checks the
// resumed run completes with byte-identical terminal output and zero
// re-dispatch of journal-done stages.
func crashResumeRound(t *testing.T, kill *KillSwitch, syncEvery, tear int, want []byte, seed byte, payload int, mutate func(*Runner)) {
	t.Helper()
	e := newResumeEnv()
	spec := crashPipeSpec(seed, payload)
	n := len(spec.Components)
	e.v.Run(func() {
		stop, err := StartServices(e.v, e.grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		sink := &MemSink{}
		j := NewJournal(sink, e.v)
		j.SyncEvery = syncEvery
		o1 := obs.New(e.v)
		r1 := &Runner{Grid: e.grid, GNS: e.gns, Journal: j, Kill: kill, Obs: o1}
		if mutate != nil {
			mutate(r1)
		}
		_, err = r1.Run(spec, CouplingSequential)
		if !errors.Is(err, ErrCoordinatorKilled) {
			t.Fatalf("killed run returned %v, want ErrCoordinatorKilled", err)
		}
		d1 := o1.Snapshot().Counters["wf.sched.dispatch.total"]

		img, rerr := Replay(sink.Crash(tear))
		if rerr != nil {
			t.Fatalf("replay: %v", rerr)
		}
		doneBefore := img.Done()
		// A real resumer truncates the journal file's torn tail before
		// appending its session; otherwise replay stops at the fragment
		// and every later record is invisible.
		sink.Truncate(img.CleanLen)

		o2 := obs.New(e.v)
		r2 := &Runner{Grid: e.grid, GNS: e.gns, Journal: NewJournal(sink, e.v), Obs: o2}
		if mutate != nil {
			mutate(r2)
		}
		if _, err := r2.Resume(spec, CouplingSequential, img); err != nil {
			t.Fatalf("resume: %v", err)
		}
		d2 := o2.Snapshot().Counters["wf.sched.dispatch.total"]
		if int(d2) != n-doneBefore {
			t.Errorf("resumed session dispatched %d stages, want %d (%d of %d proven done): done stages must not recompute",
				d2, n-doneBefore, doneBefore, n)
		}
		if d1+d2 < int64(n) {
			t.Errorf("sessions dispatched %d+%d < %d stages in total", d1, d2, n)
		}

		got, err := vfs.ReadFile(e.grid.Machine("brecca").RawFS(), "PIPE.OUT")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("terminal output differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
		}

		// The whole file — two sessions — replays to a fully done image.
		final, err := Replay(sink.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if final.Done() != n {
			t.Errorf("final journal proves %d/%d stages done", final.Done(), n)
		}
	})
}

func TestResumeAfterDispatchKill(t *testing.T) {
	want := referencePipeOut(t, 5, 32<<10)
	for after := 1; after <= 3; after++ {
		crashResumeRound(t, &KillSwitch{Point: KillDispatch, After: after}, 1, 0, want, 5, 32<<10, nil)
	}
}

func TestResumeAfterPreSyncKill(t *testing.T) {
	// The stage finished but its done record never reached the disk: the
	// resumed coordinator must treat it as running and re-dispatch it.
	want := referencePipeOut(t, 6, 32<<10)
	crashResumeRound(t, &KillSwitch{Point: KillPreSync, After: 2}, 1, 0, want, 6, 32<<10, nil)
}

func TestResumeFromTornTail(t *testing.T) {
	// Batched syncs leave records in the buffer; the crash persists a prefix
	// of them, tearing a frame in half. Replay must stop cleanly and the
	// resumed run must still converge to identical bytes.
	want := referencePipeOut(t, 7, 32<<10)
	crashResumeRound(t, &KillSwitch{Point: KillRecord, After: 6}, 3, 5, want, 7, 32<<10, nil)
}

func TestResumeOfCompletedRunIsANoOp(t *testing.T) {
	e := newResumeEnv()
	spec := crashPipeSpec(9, 8<<10)
	e.v.Run(func() {
		stop, err := StartServices(e.v, e.grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		sink := &MemSink{}
		r1 := &Runner{Grid: e.grid, GNS: e.gns, Journal: NewJournal(sink, e.v)}
		if _, err := r1.Run(spec, CouplingSequential); err != nil {
			t.Fatal(err)
		}
		img, err := Replay(sink.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New(e.v)
		r2 := &Runner{Grid: e.grid, GNS: e.gns, Obs: o}
		if _, err := r2.Resume(spec, CouplingSequential, img); err != nil {
			t.Fatal(err)
		}
		if d := o.Snapshot().Counters["wf.sched.dispatch.total"]; d != 0 {
			t.Errorf("resume of a completed run dispatched %d stages, want 0", d)
		}
	})
}

func TestResumeAfterEagerCopyKill(t *testing.T) {
	// The coordinator dies the instant an eager stage-in launches (gen's
	// close of G.DAT starts the copy toward fold's machine). The orphaned
	// copy drains; the resumed run — eager copies on again — converges to
	// identical bytes.
	want := referencePipeOut(t, 8, 32<<10)
	crashResumeRound(t, &KillSwitch{Point: KillEagerCopy, After: 1}, 1, 0, want, 8, 32<<10,
		func(r *Runner) { r.EagerCopy = true })
}
