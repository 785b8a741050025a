package workflow

import (
	"errors"
	"fmt"
	"testing"

	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
)

// layeredSpec generates a layers×width DAG: every stage in layer l+1
// depends on two stages of layer l (its column and the next, wrapping), so
// the graph is connected but sparse — 2·width·(layers-1) edges, not a
// bipartite explosion. Stages round-robin over the testbed's machines and
// have no-op bodies: the test exercises the coordinator and journal at
// scale, not the grid's disks.
func layeredSpec(layers, width int) *Spec {
	machines := []string{"brecca", "dione", "freak", "koume00", "vpac27", "bouscat", "jagan"}
	noop := func(*Ctx) error { return nil }
	out := func(l, s int) string { return fmt.Sprintf("L%d.S%d", l, s) }
	spec := &Spec{Name: fmt.Sprintf("layered-%dx%d", layers, width)}
	for l := 0; l < layers; l++ {
		for s := 0; s < width; s++ {
			c := Component{
				Name:    fmt.Sprintf("st-%d-%d", l, s),
				Machine: machines[(l*width+s)%len(machines)],
				Run:     noop,
			}
			if l > 0 {
				c.Inputs = []string{out(l-1, s), out(l-1, (s+1)%width)}
			}
			if l < layers-1 {
				c.Outputs = []string{out(l, s)}
			}
			spec.Components = append(spec.Components, c)
		}
	}
	return spec
}

// TestGiantDAGJournaledKillResume pushes a 10,000-stage DAG through a
// mid-flight coordinator kill and a journaled resume: the journal replay
// must scale, the resumed session must re-dispatch exactly the stages the
// journal cannot prove done, and the whole DAG must converge.
func TestGiantDAGJournaledKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-stage DAG; skipped under -short")
	}
	const layers, width = 100, 100
	n := layers * width
	spec := layeredSpec(layers, width)

	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	store := gns.NewStore(v)
	sink := &MemSink{}
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		j := NewJournal(sink, v)
		j.SnapshotEvery = 512 // keep the journal compact at this scale
		o1 := obs.New(v)
		r1 := &Runner{
			Grid: grid, GNS: store, Obs: o1, MaxPerMachine: 64,
			Journal: j, Kill: &KillSwitch{Point: KillDispatch, After: 4000},
		}
		if _, err := r1.Run(spec, CouplingSequential); !errors.Is(err, ErrCoordinatorKilled) {
			t.Fatalf("killed run returned %v, want ErrCoordinatorKilled", err)
		}
		if d := o1.Snapshot().Counters["wf.sched.dispatch.total"]; d != 4000 {
			t.Fatalf("kill switch fired after %d dispatches, want 4000", d)
		}

		img, err := Replay(sink.Crash(0))
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		sink.Truncate(img.CleanLen)
		if img.Done() == 0 || img.Done() >= n {
			t.Fatalf("journal proves %d/%d stages done at the kill, want a strict mid-point", img.Done(), n)
		}

		j2 := NewJournal(sink, v)
		j2.SnapshotEvery = 512
		o2 := obs.New(v)
		r2 := &Runner{Grid: grid, GNS: store, Obs: o2, MaxPerMachine: 64, Journal: j2}
		if _, err := r2.Resume(spec, CouplingSequential, img); err != nil {
			t.Fatalf("resume: %v", err)
		}
		if d := o2.Snapshot().Counters["wf.sched.dispatch.total"]; int(d) != n-img.Done() {
			t.Errorf("resumed session dispatched %d stages, want %d: journal-done stages must not recompute",
				d, n-img.Done())
		}

		final, err := Replay(sink.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if final.Done() != n {
			t.Errorf("final journal proves %d/%d stages done", final.Done(), n)
		}
	})
}
