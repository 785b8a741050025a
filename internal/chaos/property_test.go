package chaos

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"griddles/internal/fault"
	"griddles/internal/gns"
	"griddles/internal/retry"
	"griddles/internal/simclock"
	"griddles/internal/workflow"
)

// TestRandomFaultSchedulesNeverHang is the property half of the chaos suite:
// 50 seeded random fault schedules thrown at a 3-stage streaming workflow
// (brecca -> dione -> koume00, coupled by Grid Buffers). Every fault in a
// random schedule is recoverable (bounded outages only), but pile-ups can
// still exhaust the retry budget — so the property is success-or-clean-error:
// either every stage finishes and the output is byte-identical to the fault
// free run, or some stage returns a non-nil error within its deadline
// budget. A hang is impossible to miss: the virtual clock panics with a
// goroutine dump the moment the whole world blocks.
func TestRandomFaultSchedulesNeverHang(t *testing.T) {
	if testing.Short() {
		t.Skip("property test: 50 randomized pipeline runs")
	}
	hosts := []string{"brecca", "dione", "koume00"}
	want := Payload(99, 64_000)
	for seed := int64(0); seed < 50; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sched := fault.RandomSchedule(seed, hosts, 8, 3*time.Second)
			got, errs := runPipeline(t, want, sched)
			var failed bool
			for _, err := range errs {
				if err != nil {
					failed = true
				}
			}
			if !failed && !bytes.Equal(got, want) {
				t.Fatalf("all stages succeeded but output differs: got %d bytes, want %d", len(got), len(want))
			}
			// A failed run is acceptable — the property is that it failed
			// cleanly (errors reported, run finished) rather than hanging,
			// which reaching this line proves.
		})
	}
}

// runPipeline drives the 3-stage workflow under a fault schedule and returns
// the final stage's output and each stage's error.
func runPipeline(t *testing.T, want []byte, sched []fault.Action) ([]byte, [3]error) {
	t.Helper()
	e := NewEnv()
	b1 := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: "dione" + workflow.BufferServicePort, BufferKey: "p/s1"}
	e.Store.Set("brecca", "S1.OUT", b1)
	e.Store.Set("dione", "S1.OUT", b1)
	b2 := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: "koume00" + workflow.BufferServicePort, BufferKey: "p/s2"}
	e.Store.Set("dione", "S2.OUT", b2)
	e.Store.Set("koume00", "S2.OUT", b2)
	p := Policy()
	var got []byte
	var errs [3]error
	run(t, e, func() {
		stop, err := e.StartServices(hostsOf(e)...)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		if len(sched) > 0 {
			defer (&fault.Schedule{Clock: e.V, Net: e.Grid.Network(), Obs: e.Obs, Actions: sched}).Start().Wait()
		}
		wg := simclock.NewWaitGroup(e.V)
		wg.Add(2)
		e.V.Go("stage1", func() {
			defer wg.Done()
			errs[0] = RunProducer(e, "brecca", p, want)
		})
		e.V.Go("stage2", func() {
			defer wg.Done()
			errs[1] = relayStage(e, p)
		})
		got, errs[2] = readStage(e, p)
		wg.Wait()
	})
	return got, errs
}

func hostsOf(*Env) []string { return []string{"brecca", "dione", "koume00"} }

// relayStage runs on dione: stream S1.OUT into S2.OUT.
func relayStage(e *Env, p retry.Policy) error {
	fm, err := e.FM("dione", p)
	if err != nil {
		return err
	}
	in, err := fm.Open("S1.OUT")
	if err != nil {
		return err
	}
	out, err := fm.Create("S2.OUT")
	if err != nil {
		in.Close()
		return err
	}
	_, cerr := io.Copy(out, in)
	in.Close()
	if err := out.Close(); cerr == nil {
		cerr = err
	}
	return cerr
}

// readStage runs on koume00: drain S2.OUT.
func readStage(e *Env, p retry.Policy) ([]byte, error) {
	fm, err := e.FM("koume00", p)
	if err != nil {
		return nil, err
	}
	f, err := fm.Open("S2.OUT")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
