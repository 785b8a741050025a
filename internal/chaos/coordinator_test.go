package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"griddles/internal/obs"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

// The PR 8 coordinator chaos matrix: kill the workflow coordinator at a
// chosen point — mid-dispatch, between a stage's done record and its fsync,
// mid-eager-copy, mid-speculation, or at a seeded random journal append
// with a torn tail — then restart it from the journal and require
//
//   - the resumed run converges with terminal output byte-identical to an
//     uninterrupted run, and
//   - stages the journal proves done are never recomputed, pinned by the
//     resumed session's wf.sched.dispatch.total delta.

// coordSpec is a four-stage chain over the chaos topology with a
// deterministic terminal file: gen(DataHost) -> fold(AppHost) ->
// mix(AltHost) -> pack(DataHost) writing CHAOS.OUT, every byte a function
// of seed alone.
func coordSpec(seed byte, payload int) *workflow.Spec {
	gen := func(mut byte) []byte {
		b := make([]byte, payload)
		for i := range b {
			b[i] = byte(i)*5 + seed + mut
		}
		return b
	}
	stage := func(in, out string, mut byte, work float64) func(*workflow.Ctx) error {
		return func(ctx *workflow.Ctx) error {
			var data []byte
			if in == "" {
				data = gen(mut)
			} else {
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
	return &workflow.Spec{Name: "chaos-coord", Components: []workflow.Component{
		{Name: "gen", Machine: DataHost, Outputs: []string{"C0.DAT"}, WorkHint: 4,
			Run: stage("", "C0.DAT", 1, 4)},
		{Name: "fold", Machine: AppHost, Inputs: []string{"C0.DAT"}, Outputs: []string{"C1.DAT"}, WorkHint: 4,
			Run: stage("C0.DAT", "C1.DAT", 2, 4)},
		{Name: "mix", Machine: AltHost, Inputs: []string{"C1.DAT"}, Outputs: []string{"C2.DAT"}, WorkHint: 4,
			Run: stage("C1.DAT", "C2.DAT", 3, 4)},
		{Name: "pack", Machine: DataHost, Inputs: []string{"C2.DAT"}, Outputs: []string{"CHAOS.OUT"}, WorkHint: 4,
			Run: stage("C2.DAT", "CHAOS.OUT", 4, 4)},
	}}
}

// coordReference runs mkSpec uninterrupted under mutate and returns the
// terminal file's bytes — the ground truth for every kill scenario.
func coordReference(t *testing.T, mkSpec func() *workflow.Spec, mutate func(*workflow.Runner), host, path string) []byte {
	t.Helper()
	e := NewEnv()
	r := &workflow.Runner{Grid: e.Grid, GNS: e.Store, Obs: e.Obs}
	if mutate != nil {
		mutate(r)
	}
	var out []byte
	run(t, e, func() {
		stop, err := workflow.StartServices(e.V, e.Grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		if _, err := r.Run(mkSpec(), workflow.CouplingSequential); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		b, err := vfs.ReadFile(e.Grid.Machine(host).RawFS(), path)
		if err != nil {
			t.Fatalf("reference output: %v", err)
		}
		out = b
		e.V.Sleep(5 * time.Minute) // drain any tardy losing attempt
	})
	return out
}

// coordKillResume is one matrix cell: run mkSpec journaled under mutate
// with the kill switch armed, crash (tearing `tear` unsynced bytes into a
// torn tail), replay + truncate, resume, and pin the invariants. Returns
// true if the kill actually fired — a randomized cell whose kill point was
// past the run's last append completes normally, which is also checked.
func coordKillResume(t *testing.T, mkSpec func() *workflow.Spec, mutate func(*workflow.Runner),
	kill *workflow.KillSwitch, syncEvery, tear int, host, path string, want []byte) bool {
	t.Helper()
	e := NewEnv()
	spec := mkSpec()
	n := len(spec.Components)
	fired := false
	run(t, e, func() {
		stop, err := workflow.StartServices(e.V, e.Grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		sink := &workflow.MemSink{}
		j := workflow.NewJournal(sink, e.V)
		j.SyncEvery = syncEvery
		o1 := obs.New(e.V)
		r1 := &workflow.Runner{Grid: e.Grid, GNS: e.Store, Obs: o1, Journal: j, Kill: kill}
		if mutate != nil {
			mutate(r1)
		}
		_, err = r1.Run(spec, workflow.CouplingSequential)
		switch {
		case err == nil:
			// The kill point never fired (possible only for randomized
			// cells): the run must simply be correct.
			fired = false
		case errors.Is(err, workflow.ErrCoordinatorKilled):
			fired = true
		default:
			t.Fatalf("killed run returned %v", err)
		}

		if fired {
			img, rerr := workflow.Replay(sink.Crash(tear))
			doneBefore := 0
			if errors.Is(rerr, workflow.ErrNoHeader) {
				// The crash beat the header to disk: there is nothing to
				// resume from, so recovery is a fresh journaled run over the
				// truncated (empty) file.
				img = nil
				sink.Truncate(0)
			} else if rerr != nil {
				t.Fatalf("replay: %v", rerr)
			} else {
				doneBefore = img.Done()
				sink.Truncate(img.CleanLen)
			}

			o2 := obs.New(e.V)
			r2 := &workflow.Runner{Grid: e.Grid, GNS: e.Store, Obs: o2,
				Journal: workflow.NewJournal(sink, e.V)}
			if mutate != nil {
				mutate(r2)
			}
			if img == nil {
				if _, err := r2.Run(spec, workflow.CouplingSequential); err != nil {
					t.Fatalf("fresh rerun: %v", err)
				}
			} else if _, err := r2.Resume(spec, workflow.CouplingSequential, img); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if d := o2.Snapshot().Counters["wf.sched.dispatch.total"]; int(d) != n-doneBefore {
				t.Errorf("resumed session dispatched %d stages, want %d (%d of %d proven done): done stages must not recompute",
					d, n-doneBefore, doneBefore, n)
			}
			final, ferr := workflow.Replay(sink.Bytes())
			if ferr != nil {
				t.Fatal(ferr)
			}
			if final.Done() != n {
				t.Errorf("final journal proves %d/%d stages done", final.Done(), n)
			}
		}

		got, err := vfs.ReadFile(e.Grid.Machine(host).RawFS(), path)
		if err != nil {
			t.Fatalf("terminal output: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("terminal output differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
		}
		e.V.Sleep(5 * time.Minute) // drain tardy losers before the world ends
	})
	return fired
}

func TestChaosCoordinatorKilledMidDispatch(t *testing.T) {
	const seed, payload = 31, 128 << 10
	mk := func() *workflow.Spec { return coordSpec(seed, payload) }
	want := coordReference(t, mk, nil, DataHost, "CHAOS.OUT")
	for after := 1; after <= 3; after++ {
		if !coordKillResume(t, mk, nil,
			&workflow.KillSwitch{Point: workflow.KillDispatch, After: after},
			1, 0, DataHost, "CHAOS.OUT", want) {
			t.Errorf("dispatch kill point (after %d) never fired", after)
		}
	}
}

func TestChaosCoordinatorKilledBetweenDoneAndSync(t *testing.T) {
	// The stage finished and its done record was appended but never synced:
	// the journal must not prove it done, and the resumed coordinator must
	// re-run it — idempotently, to the same bytes.
	const seed, payload = 32, 128 << 10
	mk := func() *workflow.Spec { return coordSpec(seed, payload) }
	want := coordReference(t, mk, nil, DataHost, "CHAOS.OUT")
	for after := 1; after <= 2; after++ {
		if !coordKillResume(t, mk, nil,
			&workflow.KillSwitch{Point: workflow.KillPreSync, After: after},
			1, 0, DataHost, "CHAOS.OUT", want) {
			t.Errorf("pre-sync kill point (after %d) never fired", after)
		}
	}
}

// eagerCoordSpec gives the eager-copy machinery a window: the producer
// writes the file and then computes a long tail, so the eager copy toward
// the consumer launches while the producer is still running.
func eagerCoordSpec(seed byte, payload int) *workflow.Spec {
	want := Payload(int64(seed), payload)
	return &workflow.Spec{Name: "chaos-coord-eager", Components: []workflow.Component{
		{Name: "producer", Machine: DataHost, Outputs: []string{File}, WorkHint: 30,
			Run: func(ctx *workflow.Ctx) error {
				w, err := ctx.FM.Create(File)
				if err != nil {
					return err
				}
				if _, err := w.Write(want); err != nil {
					return err
				}
				if err := w.Close(); err != nil {
					return err
				}
				ctx.Compute(30)
				return nil
			}},
		{Name: "consumer", Machine: AppHost, Inputs: []string{File}, Outputs: []string{"EAGER.OUT"}, WorkHint: 1,
			Run: func(ctx *workflow.Ctx) error {
				r, err := ctx.FM.Open(File)
				if err != nil {
					return err
				}
				buf := &bytes.Buffer{}
				if _, err := buf.ReadFrom(r); err != nil {
					r.Close()
					return err
				}
				r.Close()
				w, err := ctx.FM.Create("EAGER.OUT")
				if err != nil {
					return err
				}
				if _, err := w.Write(buf.Bytes()); err != nil {
					return err
				}
				return w.Close()
			}},
	}}
}

func TestChaosCoordinatorKilledMidEagerCopy(t *testing.T) {
	// The coordinator dies the instant an eager stage-in launches. The
	// orphaned copy drains harmlessly; the resumed coordinator re-runs the
	// interrupted stages and the consumer's output is byte-identical.
	const seed, payload = 33, 256 << 10
	mk := func() *workflow.Spec { return eagerCoordSpec(seed, payload) }
	eager := func(r *workflow.Runner) { r.EagerCopy = true }
	want := coordReference(t, mk, eager, AppHost, "EAGER.OUT")
	if !coordKillResume(t, mk, eager,
		&workflow.KillSwitch{Point: workflow.KillEagerCopy, After: 1},
		1, 0, AppHost, "EAGER.OUT", want) {
		t.Error("eager-copy kill point never fired")
	}
}

// specCoordSpec recreates the straggler shape on the chaos topology: three
// 5s samples on DataHost feed the percentile, "lag" lands on jagan (~56s
// for 5 units) and writes SPEC.DAT, "final" on AppHost consumes it.
func specCoordSpec(seed byte, payload int) *workflow.Spec {
	sample := func(ctx *workflow.Ctx) error { ctx.Compute(5); return nil }
	return &workflow.Spec{Name: "chaos-coord-spec", Components: []workflow.Component{
		{Name: "s1", Machine: DataHost, WorkHint: 5, Run: sample},
		{Name: "s2", Machine: DataHost, WorkHint: 5, Run: sample},
		{Name: "s3", Machine: DataHost, WorkHint: 5, Run: sample},
		{Name: "lag", Machine: "jagan", Outputs: []string{"SPEC.DAT"}, WorkHint: 5,
			Run: func(ctx *workflow.Ctx) error {
				ctx.Compute(5)
				w, err := ctx.FM.Create("SPEC.DAT")
				if err != nil {
					return err
				}
				b := make([]byte, payload)
				for i := range b {
					b[i] = byte(i)*3 + seed
				}
				if _, err := w.Write(b); err != nil {
					return err
				}
				return w.Close()
			}},
		{Name: "final", Machine: AppHost, Inputs: []string{"SPEC.DAT"}, Outputs: []string{"SPEC.OUT"}, WorkHint: 2,
			Run: func(ctx *workflow.Ctx) error {
				r, err := ctx.FM.Open("SPEC.DAT")
				if err != nil {
					return err
				}
				buf := &bytes.Buffer{}
				if _, err := buf.ReadFrom(r); err != nil {
					r.Close()
					return err
				}
				r.Close()
				data := buf.Bytes()
				for i := range data {
					data[i]++
				}
				ctx.Compute(2)
				w, err := ctx.FM.Create("SPEC.OUT")
				if err != nil {
					return err
				}
				if _, err := w.Write(data); err != nil {
					return err
				}
				return w.Close()
			}},
	}}
}

func TestChaosCoordinatorKilledMidSpeculation(t *testing.T) {
	// The coordinator dies the instant a speculative attempt launches. Both
	// racing attempts drain without a coordinator; the resumed session rolls
	// the unfinished race back (the commit claim is deleted) and re-runs the
	// straggler to the same bytes.
	const seed, payload = 34, 64 << 10
	mk := func() *workflow.Spec { return specCoordSpec(seed, payload) }
	specOn := func(r *workflow.Runner) {
		r.Speculate = true
		r.SpecInterval = 7 * time.Second
	}
	want := coordReference(t, mk, specOn, AppHost, "SPEC.OUT")
	if !coordKillResume(t, mk, specOn,
		&workflow.KillSwitch{Point: workflow.KillSpeculation, After: 1},
		1, 0, AppHost, "SPEC.OUT", want) {
		t.Error("speculation kill point never fired")
	}
}

func TestChaosCoordinatorRandomKillPointProperty(t *testing.T) {
	// The seeded random axis: 50 rounds, each killing at a random journal
	// append under batched syncs (SyncEvery=3) and tearing a random number
	// of unsynced bytes into the torn tail. Whatever the crash point, the
	// resumed run must converge byte-identically without recomputing
	// journal-done stages.
	const seed, payload = 35, 32 << 10
	mk := func() *workflow.Spec { return coordSpec(seed, payload) }
	want := coordReference(t, mk, nil, DataHost, "CHAOS.OUT")
	fired := 0
	for round := 0; round < 50; round++ {
		rng := rand.New(rand.NewSource(int64(round) * 7919))
		kill := &workflow.KillSwitch{Point: workflow.KillRecord, After: 1 + rng.Intn(20)}
		tear := rng.Intn(16)
		name := fmt.Sprintf("round %d (after %d, tear %d)", round, kill.After, tear)
		if coordKillResume(t, mk, nil, kill, 3, tear, DataHost, "CHAOS.OUT", want) {
			fired++
		} else if kill.After < 10 {
			t.Errorf("%s: early kill point never fired", name)
		}
	}
	if fired < 25 {
		t.Errorf("only %d/50 random kill points fired; the property barely exercised the crash path", fired)
	}
}
