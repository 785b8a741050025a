// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated Table 1 testbed. cmd/benchtables and the
// top-level benchmarks drive it; EXPERIMENTS.md records paper-vs-measured
// for each cell.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"griddles/internal/climate"
	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/mech"
	"griddles/internal/obs"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

// Env is one fresh experiment environment: a virtual clock, the Table 1
// grid with all services running, and a workflow runner whose FMs run the
// paper's parameter set (core.Paper2004).
type Env struct {
	Clock  *simclock.Virtual
	Grid   *testbed.Grid
	Runner *workflow.Runner
}

// traceSink, when set, receives the JSONL event log of every subsequently
// created Env (cmd/benchtables -trace). Envs share the writer but not the
// observer: each has its own virtual clock, so each needs its own Observer.
var traceSink io.Writer

// SetTraceSink streams every future Env's event trace to w as JSONL; nil
// turns tracing off. Not safe to change while experiments run.
func SetTraceSink(w io.Writer) { traceSink = w }

// NewEnv builds a fresh environment. Each experiment gets its own so runs
// cannot contaminate each other.
func NewEnv() *Env {
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	env := &Env{
		Clock: v,
		Grid:  grid,
		Runner: &workflow.Runner{
			Grid:     grid,
			GNS:      gns.NewStore(v),
			FM:       core.Paper2004(),
			PollWork: 0.025,
		},
	}
	if traceSink != nil {
		env.Runner.Obs = obs.NewWith(v, obs.Config{Sink: traceSink})
	}
	return env
}

// Run executes a workflow spec under a coupling inside a fresh simulation
// and returns the report. The grid's services stop before the simulation's
// root returns, and a run that leaves a goroutine registered on the clock
// is an error.
func (e *Env) Run(spec *workflow.Spec, coupling workflow.Coupling, setup func() error) (*workflow.Report, error) {
	var rep *workflow.Report
	var err error
	var panicked any
	func() {
		defer func() { panicked = recover() }()
		e.Clock.Run(func() {
			stop, serr := workflow.StartServices(e.Clock, e.Grid)
			if serr != nil {
				err = serr
				return
			}
			defer stop()
			if setup != nil {
				if serr := setup(); serr != nil {
					err = serr
					return
				}
			}
			rep, err = e.Runner.Run(spec, coupling)
		})
	}()
	if panicked != nil {
		return nil, fmt.Errorf("experiments: simulation aborted: %v", panicked)
	}
	if n := e.Clock.Live(); n > 0 && err == nil {
		return nil, fmt.Errorf("experiments: %d goroutines still live after the run", n)
	}
	return rep, err
}

// ScaledParams returns both workloads with steps, sizes and work units divided
// by scale; 1 is the paper-calibrated full scale (cmd/benchtables -scale).
func ScaledParams(scale int) (climate.Params, mech.Params) {
	cp := climate.DefaultParams()
	cp.Steps /= scale
	cp.Work.CCAM /= float64(scale)
	cp.Work.CC2LAM /= float64(scale)
	cp.Work.DARLAM /= float64(scale)
	mp := mech.DefaultParams()
	if scale > 1 {
		mp.FieldRows /= scale
		mp.BoundaryN /= scale
		mp.GrowthSites /= scale
		mp.Work.Chammy /= float64(scale)
		mp.Work.Pafec /= float64(scale)
		mp.Work.MakeSF /= float64(scale)
		mp.Work.Fast /= float64(scale)
		mp.Work.Objective /= float64(scale)
		cp.ReRead = 4
	}
	return cp, mp
}

// fmtD formats a duration like the paper's tables.
func fmtD(d time.Duration) string { return workflow.FormatDuration(d) }

// Row is one labelled result row with per-column durations.
type Row struct {
	Label string
	Cells []string
}

// Table is a rendered experiment table.
type Table struct {
	Title   string
	Header  []string
	Rows    []Row
	Remarks []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	label := 0
	for _, r := range t.Rows {
		if len(r.Label) > label {
			label = len(r.Label)
		}
		for i, c := range r.Cells {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(&b, "  %-*s", label, "")
	for i, h := range t.Header {
		fmt.Fprintf(&b, "  %*s", widths[i], h)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-*s", label, r.Label)
		for i, c := range r.Cells {
			w := 8
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "  %*s", w, c)
		}
		b.WriteByte('\n')
	}
	for _, r := range t.Remarks {
		fmt.Fprintf(&b, "  note: %s\n", r)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 1 — the testbed itself.

// Table1 renders the machine list.
func Table1() *Table {
	t := &Table{
		Title:  "Table 1 — Machine list (paper Table 1, with calibrated simulation parameters)",
		Header: []string{"CPU", "MHz", "MB", "Country", "speed", "disk MB/s", "mp penalty"},
	}
	for _, s := range testbed.Table1 {
		t.Rows = append(t.Rows, Row{Label: s.Name, Cells: []string{
			s.CPU, fmt.Sprint(s.MHz), fmt.Sprint(s.MemMB), s.Country,
			fmt.Sprintf("%.3f", s.SpeedFactor),
			fmt.Sprintf("%.1f", s.DiskMBps),
			fmt.Sprintf("%.2f", s.MultiprogPenalty),
		}})
	}
	return t
}

// ---------------------------------------------------------------------------
// Table 2 — the durability pipeline.

// Table2Row is one measured experiment of Table 2.
type Table2Row struct {
	Exp        int
	Assignment mech.Assignment
	Coupling   workflow.Coupling
	Total      time.Duration
	Report     *workflow.Report
}

// RunTable2 executes the paper's three Table 2 experiments.
func RunTable2(params mech.Params) ([]Table2Row, error) {
	cases := []struct {
		exp      int
		assign   mech.Assignment
		coupling workflow.Coupling
	}{
		{1, mech.AllOn("jagan"), workflow.CouplingSequential},
		{2, mech.AllOn("jagan"), workflow.CouplingBuffers},
		{3, mech.Experiment3(), workflow.CouplingBuffers},
	}
	var rows []Table2Row
	for _, c := range cases {
		env := NewEnv()
		env.Runner.BlockSize = 64 * 1024 // the engineering files move in large records
		spec := mech.PipelineSpec(params, c.assign)
		setup := func() error {
			return mech.Setup(func(m string) vfs.FS { return env.Grid.Machine(m).RawFS() }, c.assign, params)
		}
		rep, err := env.Run(spec, c.coupling, setup)
		if err != nil {
			return nil, fmt.Errorf("table 2 exp %d: %w", c.exp, err)
		}
		rows = append(rows, Table2Row{Exp: c.exp, Assignment: c.assign, Coupling: c.coupling, Total: rep.Total, Report: rep})
	}
	return rows, nil
}

// Table2 renders the Table 2 reproduction next to the paper's numbers.
func Table2(rows []Table2Row) *Table {
	paper := map[int]string{1: "01:39:17", 2: "01:29:17", 3: "00:55:11"}
	desc := map[int]string{
		1: "all on jagan, files (sequential)",
		2: "all on jagan, GridFiles (buffers)",
		3: "distributed (koume00/jagan/dione/vpac27/freak), GridFiles",
	}
	t := &Table{
		Title:  "Table 2 — Durability pipeline (paper Table 2)",
		Header: []string{"measured", "paper"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("exp %d: %s", r.Exp, desc[r.Exp]),
			Cells: []string{fmtD(r.Total), paper[r.Exp]},
		})
	}
	return t
}

// ---------------------------------------------------------------------------
// Table 3 — sequential climate runs.

// Table3Machines are the machines the paper measured.
var Table3Machines = []string{"dione", "brecca", "freak", "bouscat", "vpac27"}

// Table3Row is one machine's sequential run.
type Table3Row struct {
	Machine                    string
	CCAM, CC2LAM, DARLAM       time.Duration // per-model durations
	Total                      time.Duration
	CCAMEnd, CC2End, DARLAMEnd time.Duration // cumulative finish offsets
}

// RunTable3 executes the sequential runs of Table 3.
func RunTable3(params climate.Params, machines []string) ([]Table3Row, error) {
	var rows []Table3Row
	for _, m := range machines {
		env := NewEnv()
		env.Runner.CacheFiles = climate.CacheFiles()
		rep, err := env.Run(climate.WorkflowSpec(params, climate.AllOn(m)), workflow.CouplingSequential, nil)
		if err != nil {
			return nil, fmt.Errorf("table 3 on %s: %w", m, err)
		}
		cc, _ := rep.Timing("ccam")
		la, _ := rep.Timing("cc2lam")
		da, _ := rep.Timing("darlam")
		rows = append(rows, Table3Row{
			Machine: m,
			CCAM:    cc.Finish - cc.Start, CC2LAM: la.Finish - la.Start, DARLAM: da.Finish - da.Start,
			Total:   rep.Total,
			CCAMEnd: cc.Finish, CC2End: la.Finish, DARLAMEnd: da.Finish,
		})
	}
	return rows, nil
}

// paperTable3 is the paper's measured data (hr:min:sec).
var paperTable3 = map[string][4]string{
	"dione":   {"00:28:21", "00:00:08", "00:13:16", "00:41:45"},
	"brecca":  {"00:16:34", "00:00:08", "00:07:46", "00:24:24"},
	"freak":   {"00:30:31", "00:00:30", "00:13:38", "00:44:39"},
	"bouscat": {"01:07:29", "00:00:12", "00:31:52", "01:39:33"},
	"vpac27":  {"01:05:22", "00:00:11", "00:31:00", "01:36:33"},
}

// Table3 renders the Table 3 reproduction.
func Table3(rows []Table3Row) *Table {
	t := &Table{
		Title:  "Table 3 — Sequential atmospheric runs (paper Table 3); paper values in parentheses",
		Header: []string{"C-CAM", "cc2lam", "DARLAM", "Total"},
	}
	for _, r := range rows {
		p := paperTable3[r.Machine]
		t.Rows = append(t.Rows, Row{Label: r.Machine, Cells: []string{
			fmt.Sprintf("%s (%s)", fmtD(r.CCAM), p[0]),
			fmt.Sprintf("%s (%s)", fmtD(r.CC2LAM), p[1]),
			fmt.Sprintf("%s (%s)", fmtD(r.DARLAM), p[2]),
			fmt.Sprintf("%s (%s)", fmtD(r.Total), p[3]),
		}})
	}
	t.Remarks = append(t.Remarks,
		"our cc2lam pays uncached disk IO for both coupling files; the paper's ran in page cache")
	return t
}

// ---------------------------------------------------------------------------
// Table 4 — concurrent same-machine runs, files vs buffers.

// Table4Row is one machine's pair of concurrent runs (cumulative finish
// offsets, as in the paper).
type Table4Row struct {
	Machine string
	Files   [3]time.Duration // ccam, cc2lam, darlam finish offsets
	Buffers [3]time.Duration
}

// RunTable4 executes the concurrent same-machine runs.
func RunTable4(params climate.Params, machines []string) ([]Table4Row, error) {
	var rows []Table4Row
	for _, m := range machines {
		row := Table4Row{Machine: m}
		for i, coupling := range []workflow.Coupling{workflow.CouplingFiles, workflow.CouplingBuffers} {
			env := NewEnv()
			env.Runner.CacheFiles = climate.CacheFiles()
			rep, err := env.Run(climate.WorkflowSpec(params, climate.AllOn(m)), coupling, nil)
			if err != nil {
				return nil, fmt.Errorf("table 4 on %s (%s): %w", m, coupling, err)
			}
			cc, _ := rep.Timing("ccam")
			la, _ := rep.Timing("cc2lam")
			da, _ := rep.Timing("darlam")
			finishes := [3]time.Duration{cc.Finish, la.Finish, da.Finish}
			if i == 0 {
				row.Files = finishes
			} else {
				row.Buffers = finishes
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// paperTable4 is the paper's measured cumulative data.
var paperTable4 = map[string][2][3]string{
	"dione":   {{"00:41:18", "00:41:56", "01:08:17"}, {"00:44:10", "00:44:15", "00:49:12"}},
	"brecca":  {{"00:18:13", "00:18:25", "00:27:58"}, {"00:20:05", "00:20:12", "00:22:57"}},
	"freak":   {{"00:34:35", "00:35:26", "00:52:39"}, {"00:35:21", "00:35:33", "00:40:30"}},
	"bouscat": {{"01:10:22", "01:10:39", "01:55:27"}, {"01:17:51", "01:18:10", "01:29:59"}},
	"vpac27":  {{"01:39:28", "01:40:24", "02:44:49"}, {"01:51:11", "01:52:05", "02:15:15"}},
}

// Table4 renders the Table 4 reproduction.
func Table4(rows []Table4Row) *Table {
	t := &Table{
		Title:  "Table 4 — Concurrent runs on one machine, cumulative finishes (paper Table 4); paper values in parentheses",
		Header: []string{"model", "files", "buffers"},
	}
	models := []string{"C-CAM", "cc2lam", "DARLAM"}
	for _, r := range rows {
		p := paperTable4[r.Machine]
		for i, model := range models {
			label := ""
			if i == 0 {
				label = r.Machine
			}
			t.Rows = append(t.Rows, Row{Label: label, Cells: []string{
				model,
				fmt.Sprintf("%s (%s)", fmtD(r.Files[i]), p[0][i]),
				fmt.Sprintf("%s (%s)", fmtD(r.Buffers[i]), p[1][i]),
			}})
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// Table 5 — distributed pairs, files+copy vs buffers.

// Pairing is one (C-CAM+cc2lam machine, DARLAM machine) combination.
type Pairing struct{ Src, Dst string }

// Table5Pairings are the paper's six rows, in table order.
var Table5Pairings = []Pairing{
	{"dione", "vpac27"},
	{"brecca", "dione"},
	{"brecca", "bouscat"},
	{"dione", "brecca"},
	{"brecca", "vpac27"},
	{"brecca", "freak"},
}

// Table5Row is one pairing's measurements (cumulative offsets).
type Table5Row struct {
	Pair Pairing
	// Files: sequential with a staged copy. CCAMEnd/CC2End are the model
	// finishes, CopyEnd when the staged copy to Dst completed (folded into
	// DARLAM's start), DarlamEnd the total.
	FilesCCAM, FilesCC2, FilesCopy, FilesDarlam time.Duration
	// Buffers: co-scheduled streaming.
	BufCCAM, BufCC2, BufDarlam time.Duration
}

// RunTable5 executes the distributed pairings.
func RunTable5(params climate.Params, pairings []Pairing) ([]Table5Row, error) {
	var rows []Table5Row
	for _, pair := range pairings {
		row := Table5Row{Pair: pair}
		assign := climate.Split(pair.Src, pair.Dst)

		// Files: the paper runs the codes sequentially and copies the
		// coupling file between phases; our CouplingSequential stages the
		// copy inside DARLAM's open, so the copy time is the gap between
		// cc2lam's finish and DARLAM's first compute. We report DARLAM's
		// open-to-copy-complete boundary as FilesCopy.
		env := NewEnv()
		env.Runner.CacheFiles = climate.CacheFiles()
		rep, err := env.Run(climate.WorkflowSpec(params, assign), workflow.CouplingSequential, nil)
		if err != nil {
			return nil, fmt.Errorf("table 5 %s->%s files: %w", pair.Src, pair.Dst, err)
		}
		cc, _ := rep.Timing("ccam")
		la, _ := rep.Timing("cc2lam")
		da, _ := rep.Timing("darlam")
		row.FilesCCAM, row.FilesCC2 = cc.Finish, la.Finish
		row.FilesDarlam = da.Finish
		// DARLAM's input-open mark is when the staged cross-machine copy
		// finished (the paper's "File Copy" row).
		if m, ok := rep.Mark("darlam/input-open"); ok {
			row.FilesCopy = m
		} else {
			row.FilesCopy = da.Start
		}

		env = NewEnv()
		env.Runner.CacheFiles = climate.CacheFiles()
		rep, err = env.Run(climate.WorkflowSpec(params, assign), workflow.CouplingBuffers, nil)
		if err != nil {
			return nil, fmt.Errorf("table 5 %s->%s buffers: %w", pair.Src, pair.Dst, err)
		}
		cc, _ = rep.Timing("ccam")
		la, _ = rep.Timing("cc2lam")
		da, _ = rep.Timing("darlam")
		row.BufCCAM, row.BufCC2, row.BufDarlam = cc.Finish, la.Finish, da.Finish
		rows = append(rows, row)
	}
	return rows, nil
}

// paperTable5 is the paper's measured data, keyed by "src->dst":
// files {ccam, cc2lam, copy, darlam}, buffers {ccam, cc2lam, darlam}.
var paperTable5 = map[string][2][]string{
	"dione->vpac27":   {{"00:28:21", "00:28:29", "00:29:19", "01:00:29"}, {"00:34:20", "00:34:32", "00:48:47"}},
	"brecca->dione":   {{"00:16:34", "00:16:42", "00:17:32", "00:30:48"}, {"00:18:05", "00:18:12", "00:25:10"}},
	"brecca->bouscat": {{"00:16:34", "00:16:42", "00:24:12", "00:56:04"}, {"00:20:51", "01:05:17", "01:10:21"}},
	"dione->brecca":   {{"00:28:21", "00:28:29", "00:29:19", "00:37:05"}, {"00:35:24", "00:35:30", "00:39:24"}},
	"brecca->vpac27":  {{"00:16:34", "00:16:42", "00:16:57", "00:47:57"}, {"00:18:37", "00:18:44", "00:40:43"}},
	"brecca->freak":   {{"00:16:34", "00:16:42", "00:20:17", "00:33:55"}, {"00:18:19", "00:33:49", "00:41:45"}},
}

// Table5 renders the Table 5 reproduction.
func Table5(rows []Table5Row) *Table {
	t := &Table{
		Title:  "Table 5 — Distributed runs, cumulative finishes (paper Table 5); paper values in parentheses",
		Header: []string{"stage", "files", "buffers"},
	}
	for _, r := range rows {
		key := r.Pair.Src + "->" + r.Pair.Dst
		p := paperTable5[key]
		t.Rows = append(t.Rows,
			Row{Label: key, Cells: []string{"C-CAM",
				fmt.Sprintf("%s (%s)", fmtD(r.FilesCCAM), p[0][0]),
				fmt.Sprintf("%s (%s)", fmtD(r.BufCCAM), p[1][0])}},
			Row{Label: "", Cells: []string{"cc2lam",
				fmt.Sprintf("%s (%s)", fmtD(r.FilesCC2), p[0][1]),
				fmt.Sprintf("%s (%s)", fmtD(r.BufCC2), p[1][1])}},
			Row{Label: "", Cells: []string{"copy done",
				fmt.Sprintf("%s (%s)", fmtD(r.FilesCopy), p[0][2]), ""}},
			Row{Label: "", Cells: []string{"DARLAM",
				fmt.Sprintf("%s (%s)", fmtD(r.FilesDarlam), p[0][3]),
				fmt.Sprintf("%s (%s)", fmtD(r.BufDarlam), p[1][2])}},
		)
	}
	return t
}

// Winner reports which mode won a Table 5 row, for shape checks.
func (r Table5Row) Winner() string {
	if r.BufDarlam < r.FilesDarlam {
		return "buffers"
	}
	return "files"
}
