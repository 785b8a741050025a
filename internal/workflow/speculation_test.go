package workflow

import (
	"bytes"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
)

// stragglerSpec is engineered so exactly one speculation fires at a known
// virtual time. Three sample stages run back to back on brecca (5 s each
// under MaxPerMachine=1, finishing at t=5/10/15) to feed the duration
// percentile. The "lag" stage lands on jagan (SpeedFactor 0.089), where
// Compute(5) takes ~56 s — far past the 7.5 s threshold the samples
// establish — and writes OUT.DAT. A downstream "final" stage on dione
// consumes OUT.DAT and writes FINAL.DAT, so the test proves the consumer
// was re-pointed at the speculation winner's copy.
func stragglerSpec(seed byte, payload int) *Spec {
	outBytes := func() []byte {
		b := make([]byte, payload)
		for i := range b {
			b[i] = byte(i)*3 + seed
		}
		return b
	}
	sample := func(ctx *Ctx) error { ctx.Compute(5); return nil }
	return &Spec{Name: "spectest", Components: []Component{
		{Name: "s1", Machine: "brecca", WorkHint: 5, Run: sample},
		{Name: "s2", Machine: "brecca", WorkHint: 5, Run: sample},
		{Name: "s3", Machine: "brecca", WorkHint: 5, Run: sample},
		{Name: "lag", Machine: "jagan", Outputs: []string{"OUT.DAT"}, WorkHint: 5,
			Run: func(ctx *Ctx) error {
				ctx.Compute(5)
				w, err := ctx.FM.Create("OUT.DAT")
				if err != nil {
					return err
				}
				if _, err := w.Write(outBytes()); err != nil {
					return err
				}
				return w.Close()
			}},
		{Name: "final", Machine: "dione", Inputs: []string{"OUT.DAT"}, Outputs: []string{"FINAL.DAT"}, WorkHint: 2,
			Run: func(ctx *Ctx) error {
				r, err := ctx.FM.Open("OUT.DAT")
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
				w, err := ctx.FM.Create("FINAL.DAT")
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

// wantFinal is FINAL.DAT's ground truth: lag's deterministic bytes, +1.
func wantFinal(seed byte, payload int) []byte {
	b := make([]byte, payload)
	for i := range b {
		b[i] = byte(i)*3 + seed + 1
	}
	return b
}

// runSpecObs runs spec on a fresh grid with an observer attached and
// returns the report plus the counter snapshot taken after the whole
// simulation drains (so a tardy losing primary's discard is counted).
func runSpecObs(t *testing.T, spec *Spec, mutate func(*Runner)) (*Report, map[string]int64, *testbed.Grid) {
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
		// Run returns the moment the DAG is done; a losing primary may still
		// be computing on its remote machine until its next IO refuses. Let
		// the simulated world drain so its discard is observable.
		v.Sleep(5 * time.Minute)
	})
	return report, o.Snapshot().Counters, grid
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	const seed, payload = 3, 64 << 10
	spec := func() *Spec { return stragglerSpec(seed, payload) }

	base, _, _ := runSpecObs(t, spec(), nil)
	rep, c, grid := runSpecObs(t, spec(), func(r *Runner) {
		r.Speculate = true
		r.SpecInterval = 7 * time.Second
	})

	if c["wf.spec.launch.total"] != 1 {
		t.Errorf("speculation launched %d attempts, want exactly 1", c["wf.spec.launch.total"])
	}
	if c["wf.spec.win.total"] != 1 {
		t.Errorf("speculation won %d races, want 1", c["wf.spec.win.total"])
	}
	if c["wf.spec.lose.total"] != 1 {
		t.Errorf("recorded %d losing attempts, want 1 (the interrupted primary)", c["wf.spec.lose.total"])
	}
	if rep.Total >= base.Total {
		t.Errorf("speculation did not speed up the straggler: %v with vs %v without", rep.Total, base.Total)
	}

	// The consumer was re-pointed at the winner: FINAL.DAT is byte-exact.
	got, err := vfs.ReadFile(grid.Machine("dione").RawFS(), "FINAL.DAT")
	if err != nil {
		t.Fatalf("FINAL.DAT: %v", err)
	}
	if !bytes.Equal(got, wantFinal(seed, payload)) {
		t.Errorf("FINAL.DAT differs from the deterministic ground truth (%d bytes)", len(got))
	}

	// The winner's output lives under the speculation namespace on brecca;
	// the interrupted primary's plain-named partial was discarded on jagan.
	if _, err := vfs.ReadFile(grid.Machine("brecca").RawFS(), "OUT.DAT"+specSuffix); err != nil {
		t.Errorf("winner's output missing on brecca: %v", err)
	}
	if _, err := vfs.ReadFile(grid.Machine("jagan").RawFS(), "OUT.DAT"); err == nil {
		t.Error("losing primary's OUT.DAT survived on jagan, want discarded")
	}
}

func TestSpeculationFastPathLaunchesNothing(t *testing.T) {
	// A DAG with no straggler never trips the percentile threshold: the
	// monitor runs but launches zero speculative attempts.
	_, c, _ := runSpecObs(t, diamondSpec(10, 32<<10), func(r *Runner) {
		r.Speculate = true
	})
	if c["wf.spec.launch.total"] != 0 {
		t.Errorf("fast path launched %d speculative attempts, want 0", c["wf.spec.launch.total"])
	}
	if c["wf.spec.win.total"] != 0 || c["wf.spec.lose.total"] != 0 {
		t.Errorf("fast path recorded wins/losses (%d/%d), want none",
			c["wf.spec.win.total"], c["wf.spec.lose.total"])
	}
}

func TestSpeculationJournalsRace(t *testing.T) {
	// With a journal attached, the race leaves SpecLaunch + SpecWin records
	// and the replayed image carries the winner as the stage's home.
	const seed, payload = 4, 16 << 10
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	sink := &MemSink{}
	r := &Runner{
		Grid: grid, GNS: gns.NewStore(v),
		Journal: NewJournal(sink, v), Speculate: true,
		SpecInterval: 7 * time.Second,
	}
	spec := stragglerSpec(seed, payload)
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		if _, err := r.Run(spec, CouplingSequential); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	img, err := Replay(sink.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if img.Done() != len(spec.Components) {
		t.Errorf("journal proves %d/%d stages done", img.Done(), len(spec.Components))
	}
	lag := 3 // index of the straggler component
	if h, ok := img.Home[lag]; !ok || h == spec.Components[lag].Machine {
		t.Errorf("journal home for the straggler = %q, %v; want the speculation winner", h, ok)
	}
	launches, wins := countSpecOps(t, sink.Bytes())
	if launches != 1 || wins != 1 {
		t.Errorf("journal holds %d SpecLaunch / %d SpecWin records, want 1/1", launches, wins)
	}
}

// countSpecOps scans raw journal bytes for speculation records.
func countSpecOps(t *testing.T, data []byte) (launches, wins int) {
	t.Helper()
	off := 0
	for off+8 <= len(data) {
		n := int(uint32(data[off])<<24 | uint32(data[off+1])<<16 | uint32(data[off+2])<<8 | uint32(data[off+3]))
		if off+8+n > len(data) {
			break
		}
		rec, err := decodeRecord(data[off+8 : off+8+n])
		if err != nil {
			break
		}
		if rec.kind == recSpec {
			switch rec.op {
			case SpecLaunch:
				launches++
			case SpecWin:
				wins++
			}
		}
		off += 8 + n
	}
	return launches, wins
}

// stagedStragglerSpec moves the straggler's input to a third machine: gen
// on freak produces IN.DAT, three samples on brecca feed the percentile,
// lag on jagan folds IN.DAT into OUT.DAT, final on dione packs FINAL.DAT.
// A speculative attempt of lag must stage IN.DAT from gen's home across
// the network into its ".wfspec" namespace.
func stagedStragglerSpec(seed byte, payload int) *Spec {
	sample := func(ctx *Ctx) error { ctx.Compute(5); return nil }
	pipe := func(in, out string, mut byte, work float64) func(*Ctx) error {
		return func(ctx *Ctx) error {
			var data []byte
			if in == "" {
				data = make([]byte, payload)
				for i := range data {
					data[i] = byte(i)*3 + seed
				}
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
	return &Spec{Name: "spectest-staged", Components: []Component{
		{Name: "gen", Machine: "freak", Outputs: []string{"IN.DAT"}, WorkHint: 5,
			Run: pipe("", "IN.DAT", 0, 5)},
		{Name: "s1", Machine: "brecca", WorkHint: 5, Run: sample},
		{Name: "s2", Machine: "brecca", WorkHint: 5, Run: sample},
		{Name: "s3", Machine: "brecca", WorkHint: 5, Run: sample},
		{Name: "lag", Machine: "jagan", Inputs: []string{"IN.DAT"}, Outputs: []string{"OUT.DAT"}, WorkHint: 5,
			Run: pipe("IN.DAT", "OUT.DAT", 1, 5)},
		{Name: "final", Machine: "dione", Inputs: []string{"OUT.DAT"}, Outputs: []string{"FINAL.DAT"}, WorkHint: 2,
			Run: pipe("OUT.DAT", "FINAL.DAT", 1, 2)},
	}}
}

func TestSpeculationStagesInputFromProducerHome(t *testing.T) {
	// The winning speculative attempt ran on a machine that holds neither
	// the stage's input nor its consumers: it staged IN.DAT from gen's home
	// into its namespace, computed there, and the consumer was re-pointed.
	const seed, payload = 11, 32 << 10
	spec := func() *Spec { return stagedStragglerSpec(seed, payload) }

	base, _, baseGrid := runSpecObs(t, spec(), nil)
	rep, c, grid := runSpecObs(t, spec(), func(r *Runner) {
		r.Speculate = true
		r.SpecInterval = 7 * time.Second
	})
	if c["wf.spec.launch.total"] != 1 || c["wf.spec.win.total"] != 1 {
		t.Fatalf("launch/win = %d/%d, want 1/1",
			c["wf.spec.launch.total"], c["wf.spec.win.total"])
	}
	if rep.Total >= base.Total {
		t.Errorf("speculation did not speed up the staged straggler: %v with vs %v without", rep.Total, base.Total)
	}
	want, err := vfs.ReadFile(baseGrid.Machine("dione").RawFS(), "FINAL.DAT")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(grid.Machine("dione").RawFS(), "FINAL.DAT")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("FINAL.DAT differs between speculated and plain runs (%d vs %d bytes)", len(got), len(want))
	}
	// The winner is deterministic — brecca is the fastest idle machine at
	// the launch scan. Its staged input and its winning output both live
	// under the speculation namespace there, never under plain names.
	if _, err := vfs.ReadFile(grid.Machine("brecca").RawFS(), "OUT.DAT"+specSuffix); err != nil {
		t.Errorf("winner brecca is missing the namespaced OUT.DAT: %v", err)
	}
	if _, err := vfs.ReadFile(grid.Machine("brecca").RawFS(), "IN.DAT"+specSuffix); err != nil {
		t.Errorf("winner brecca is missing the staged namespaced input: %v", err)
	}
	if _, err := vfs.ReadFile(grid.Machine("brecca").RawFS(), "OUT.DAT"); err == nil {
		t.Error("winner wrote a plain-named OUT.DAT outside the speculation namespace")
	}
}

func TestSpeculationLoserIsDiscardedWhenPrimaryWins(t *testing.T) {
	// A speculative attempt that loses the race: the primary is slow enough
	// to trip the threshold but finishes before the backup. The backup's
	// interrupt fires at its next IO, its partial outputs are removed and
	// the GNS entries its pre-staging overwrote are restored.
	const payload = 16 << 10
	sample := func(ctx *Ctx) error { ctx.Compute(5); return nil }
	spec := &Spec{Name: "spectest-lose", Components: []Component{
		{Name: "s1", Machine: "brecca", WorkHint: 5, Run: sample},
		{Name: "s2", Machine: "brecca", WorkHint: 5, Run: sample},
		{Name: "s3", Machine: "brecca", WorkHint: 5, Run: sample},
		// bouscat (0.245): 4 units is ~16.3s — a straggler at the t=15 scan
		// (the monitor wakes on s3's finish broadcast; threshold p75*1.5 =
		// 7.5s) but done before a brecca backup launched at t=15 reaches
		// its Create at ~19s.
		{Name: "lag", Machine: "bouscat", Outputs: []string{"OUT.DAT"}, WorkHint: 4,
			Run: func(ctx *Ctx) error {
				ctx.Compute(4)
				w, err := ctx.FM.Create("OUT.DAT")
				if err != nil {
					return err
				}
				b := make([]byte, payload)
				for i := range b {
					b[i] = byte(i) * 9
				}
				if _, err := w.Write(b); err != nil {
					return err
				}
				return w.Close()
			}},
	}}
	_, c, grid := runSpecObs(t, spec, func(r *Runner) {
		r.Speculate = true
		r.SpecInterval = 7 * time.Second
	})
	if c["wf.spec.launch.total"] != 1 {
		t.Fatalf("launched %d speculative attempts, want 1", c["wf.spec.launch.total"])
	}
	if c["wf.spec.win.total"] != 0 {
		t.Errorf("backup won %d races, want 0 (the primary was first)", c["wf.spec.win.total"])
	}
	if c["wf.spec.lose.total"] != 1 {
		t.Errorf("recorded %d losing attempts, want 1 (the backup)", c["wf.spec.lose.total"])
	}
	// The primary's plain-named output survives; the backup's namespaced
	// partial was discarded from the machine it ran on.
	if _, err := vfs.ReadFile(grid.Machine("bouscat").RawFS(), "OUT.DAT"); err != nil {
		t.Errorf("primary's OUT.DAT missing on bouscat: %v", err)
	}
	for _, m := range []string{"brecca", "dione", "freak", "koume00", "vpac27", "jagan"} {
		if _, err := vfs.ReadFile(grid.Machine(m).RawFS(), "OUT.DAT"+specSuffix); err == nil {
			t.Errorf("losing backup's namespaced OUT.DAT survived on %s", m)
		}
	}
}
