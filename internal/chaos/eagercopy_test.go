package chaos

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"griddles/internal/core"
	"griddles/internal/obs"
	"griddles/internal/workflow"
)

// The PR 5 scheduler chaos case: an eager stage-in copy loses its link
// mid-flight. The consumer's open must refuse the dead copy and fall back
// to the ordinary open-time stage-in — whose CopyIn truncates the partial
// file — so the bytes the consumer reads are identical with and without the
// fault.

// eagerSpec is a producer on DataHost writing `want` then computing a
// 30-unit tail (the eager-copy window), and a consumer on AppHost reading
// the file and verifying every byte.
func eagerSpec(want []byte) *workflow.Spec {
	return &workflow.Spec{Name: "chaos-eager", Components: []workflow.Component{
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
		{Name: "consumer", Machine: AppHost, Inputs: []string{File}, WorkHint: 1,
			Run: func(ctx *workflow.Ctx) error {
				r, err := ctx.FM.Open(File)
				if err != nil {
					return err
				}
				defer r.Close()
				got, err := io.ReadAll(r)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("consumer read %d bytes, not byte-identical to the %d written", len(got), len(want))
				}
				return nil
			}},
	}}
}

// runEagerWorkflow runs eagerSpec on a fresh env with eager copies on,
// arming the fault (if any) before the run starts.
func runEagerWorkflow(t *testing.T, payload int, arm func(e *Env)) map[string]int64 {
	t.Helper()
	return runWorkflow(t, payload, &workflow.Runner{EagerCopy: true}, arm).Snapshot().Counters
}

// runWorkflow runs eagerSpec with runner on a fresh env's grid, GNS and
// observer, and returns the observer.
func runWorkflow(t *testing.T, payload int, runner *workflow.Runner, arm func(e *Env)) *obs.Observer {
	t.Helper()
	e := NewEnv()
	want := Payload(23, payload)
	runner.Grid, runner.GNS, runner.Obs = e.Grid, e.Store, e.Obs
	run(t, e, func() {
		stop, err := e.StartServices(AppHost, DataHost)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		if arm != nil {
			arm(e)
		}
		if _, err := runner.Run(eagerSpec(want), workflow.CouplingSequential); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	return e.Obs
}

// TestChaosStageFMRetriesFromTemplate: a workflow's stage FMs carry the whole
// of the Runner.FM template, here a retry policy. The copy link resets halfway
// through the consumer's open-time stage-in; the consumer's FM retries the
// copy and the run completes byte-identical (the consumer body checks).
func TestChaosStageFMRetriesFromTemplate(t *testing.T) {
	const payload = 512 << 10
	o := runWorkflow(t, payload, &workflow.Runner{FM: core.Config{Retry: Policy()}}, func(e *Env) {
		e.Grid.Network().FailAfter(DataHost, AppHost, payload/2)
	})
	for _, ev := range o.Events() {
		if ev.Type == "retry.attempt" && ev.Src == AppHost {
			return
		}
	}
	t.Errorf("no retry.attempt event from the consumer's FM on %s: the template's policy did not reach it", AppHost)
}

func TestChaosEagerCopyAdoptsWithoutFaults(t *testing.T) {
	c := runEagerWorkflow(t, 512<<10, nil)
	if c["wf.eagercopy.start.total"] != 1 || c["wf.eagercopy.adopt.total"] != 1 {
		t.Errorf("start/adopt = %d/%d, want 1/1",
			c["wf.eagercopy.start.total"], c["wf.eagercopy.adopt.total"])
	}
	if c["wf.eagercopy.fail.total"] != 0 {
		t.Errorf("spurious eager-copy failures: %d", c["wf.eagercopy.fail.total"])
	}
}

func TestChaosEagerCopyDiesMidFlightFallsBackByteIdentical(t *testing.T) {
	const payload = 512 << 10
	// Kill the DataHost->AppHost link after half the payload has crossed:
	// the eager copy dies mid-transfer, leaving a partial staged file. The
	// reset is one-shot, so the consumer's fallback open-time copy gets a
	// working link. The consumer body asserts byte identity.
	c := runEagerWorkflow(t, payload, func(e *Env) {
		e.Grid.Network().FailAfter(DataHost, AppHost, payload/2)
	})
	if c["wf.eagercopy.fail.total"] != 1 {
		t.Errorf("wf.eagercopy.fail.total = %d, want 1", c["wf.eagercopy.fail.total"])
	}
	if c["wf.eagercopy.adopt.total"] != 0 {
		t.Error("consumer adopted a failed eager copy")
	}
	if c["wf.eagercopy.start.total"] != 1 {
		t.Errorf("wf.eagercopy.start.total = %d, want 1", c["wf.eagercopy.start.total"])
	}
}
