// Command gridlab is the repository's wall-clock benchmark: it builds the
// real cmd/ daemons, launches them as OS processes on loopback, drives them
// through core.Multiplexer from this one load-generating process, checks
// every byte, prints every metric by name with its unit, and tears down.
//
//	go run ./gridlab -workload W -seed N -seconds S -trace 0|1   one run, one JSON result line
//	go run ./gridlab -seed N [-out DIR]                          every workload, untraced then traced
//	go run ./gridlab -seed N -check-repeat                       the untraced set twice, compared
//
// See README.md in this directory for the workloads, the metrics and how
// to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// warmUp is how long each workload runs before the measured part, so
// connection pools are dialled and lazy set-up is done.
const warmUp = 2 * time.Second

// A run brings the grid up and generates its inputs at least setupRounds
// times, and keeps going — a cheap set-up is a few dozen milliseconds of
// process start-up, and the median of five of those still wanders — until
// setupBudget is spent or setupRoundsMax is reached. setup_s is the median;
// the last round is the one the run uses.
const (
	setupRounds    = 5
	setupRoundsMax = 15
	setupBudget    = 1500 * time.Millisecond
)

// env is where a gridlab process builds and writes: all inside the
// checkout, under .bench_build/gridlab.
type env struct {
	root   string // module root
	base   string // .bench_build/gridlab
	binDir string
	runDir string // this process's work directory, removed at exit
	buildS float64
}

func newEnv() (*env, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, base: filepath.Join(root, ".bench_build", "gridlab")}
	e.binDir = filepath.Join(e.base, "bin")
	d, err := buildDaemons(root, e.binDir)
	if err != nil {
		return nil, err
	}
	e.buildS = d.Seconds()
	if e.runDir, err = os.MkdirTemp(e.base, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Ledger    *ledger           `json:"ledger,omitempty"`
	WallS     float64           `json:"wall_s"`

	spans []span
}

// liveGrid is the grid a signal must stop before the process exits.
var liveGrid atomic.Pointer[grid]

// newWorkload builds a workload at full size (shrink 1) or with its
// payloads divided by shrink, for the smoke test.
func newWorkload(name string, shrink int) (workload, error) {
	switch name {
	case "pipe_stream":
		return &pipeWorkload{size: pipeStreamBytes / int64(shrink)}, nil
	case "file_read":
		return &fileReadWorkload{size: readFileBytes / int64(shrink)}, nil
	case "file_write":
		return &fileWriteWorkload{size: writeFileBytes / int64(shrink)}, nil
	case "open_storm":
		return &stormWorkload{files: stormFiles / shrink}, nil
	case "sim_grid":
		return &simWorkload{}, nil
	}
	return nil, fmt.Errorf("gridlab: unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// setUp brings the grid up and prepares the workload's inputs once.
func setUp(e *env, name, dir string, seed int64, shrink int, tr *tracer) (*grid, workload, error) {
	w, err := newWorkload(name, shrink)
	if err != nil {
		return nil, nil, err
	}
	g, err := startGrid(e.binDir, dir)
	if err != nil {
		return nil, nil, err
	}
	liveGrid.Store(g)
	if err := w.prepare(g, seed, tr); err != nil {
		w.close()
		g.stop()
		return nil, nil, fmt.Errorf("gridlab: %s: set-up: %w", name, err)
	}
	return g, w, nil
}

// runSpec sizes one run.
type runSpec struct {
	seconds   float64 // measured
	warm      time.Duration
	rounds    int  // set-ups at least; setup_s is their median
	maxRounds int  // set-ups at most, while they have taken under setupBudget
	traced    bool // record spans and report the per-layer metrics
	probes    bool // with traced: also run the isolated-layer probes
	shrink    int  // payload divisor: 1 in every measured run
}

// contractSpec is the run BENCHMARK.json's command performs.
func contractSpec(seconds float64, traced bool) runSpec {
	return runSpec{seconds: seconds, warm: warmUp, rounds: setupRounds, maxRounds: setupRoundsMax, traced: traced, probes: traced, shrink: 1}
}

// runOne sets the grid up (several times, for a steady setup_s), runs
// one workload on the last one and tears it down. An untraced run reports
// the end-to-end metrics; a traced run the per-layer ones.
func runOne(e *env, name string, seed int64, spec runSpec) (*result, error) {
	began := time.Now()
	traced := spec.traced
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var g *grid
	var w workload
	var setups []float64
	for round := 1; ; round++ {
		dir := filepath.Join(e.runDir, fmt.Sprintf("%s-%d", name, round))
		t0 := time.Now()
		var err error
		if g, w, err = setUp(e, name, dir, seed, spec.shrink, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if round >= spec.rounds && (time.Since(began) >= setupBudget || round >= spec.maxRounds) {
			break
		}
		w.close()
		g.stop()
		os.RemoveAll(dir)
	}
	defer os.RemoveAll(g.dir)
	defer g.stop()

	res := drive(w, g, seed, spec.warm, time.Duration(spec.seconds*float64(time.Second)), traced)
	out := &result{Workload: name, Seed: seed, Traced: traced, Metrics: map[string]metric{}}
	out.Attempted, out.Failed = res.tally()
	probes := map[string]float64{}
	if spec.probes && !res.timedOut {
		for _, err := range runProbes(g, seed, probes) {
			fmt.Fprintln(os.Stderr, "gridlab:", err)
			out.Failed++
		}
	}
	if !res.stuck {
		w.close() // a stuck client may hold its FM's locks for ever
	}
	g.stop() // before the ledger: it records the daemons' peak RSS
	if !traced {
		out.Metrics = endToEnd(res, setups)
	} else {
		out.spans = tr.all()
		out.Ledger = buildLedger(res, out.spans, g)
		for k, v := range probes {
			out.Ledger.Metrics[k] = v
		}
		for _, d := range perLayerDefs() {
			out.Metrics[d.Name] = metric{Value: out.Ledger.Metrics[d.Name], Unit: d.Unit}
		}
	}
	out.Correct = out.Failed == 0
	out.WallS = time.Since(began).Seconds()
	return out, nil
}

// resultLine is the last line of standard output of a single-workload run.
func resultLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(r.Metrics))
	for k, v := range r.Metrics {
		metrics[k] = mv{v.Value, v.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line)
}

// printResult lists a run's metrics in catalogue order on w.
func printResult(w *os.File, r *result) {
	defs := endToEndDefs
	kind := "end-to-end"
	if r.Traced {
		defs, kind = perLayerDefs(), "per-layer"
	}
	fmt.Fprintf(w, "== %s seed %d: %s, %d attempted, %d failed, %.1fs wall\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.WallS)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %s%s\n", d.Name, m.Value, m.Unit, n)
	}
	if r.Ledger != nil && r.Ledger.OpTimeMS > 0 {
		fmt.Fprintf(w, "  ledger: %.0f ms of traced op time =", r.Ledger.OpTimeMS)
		for _, name := range ledgerLayers {
			fmt.Fprintf(w, " %s %.1f%%", name, 100*r.Ledger.Share[name])
		}
		fmt.Fprintln(w)
	}
}

// summary is what a full set writes to DIR/summary.json.
type summary struct {
	Seed      int64     `json:"seed"`
	Commit    string    `json:"commit"`
	NProc     int       `json:"nproc"`     // CPUs online
	CPUsUsed  int       `json:"cpus_used"` // CPUs the harness and daemons are confined to
	GoVersion string    `json:"go_version"`
	WorkDirFS string    `json:"work_dir_fs"`
	Seconds   float64   `json:"seconds"`
	BuildS    float64   `json:"build_s"`
	Results   []*result `json:"results"`
}

func newSummary(e *env, seed int64, seconds float64) *summary {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &summary{Seed: seed, Commit: commit, NProc: onlineCPUs(), CPUsUsed: runtime.NumCPU(), GoVersion: runtime.Version(),
		WorkDirFS: fsType(e.base), Seconds: seconds, BuildS: e.buildS}
}

// runSet runs every workload once, untraced or traced. spansTo, if not
// empty, is the directory each traced run's spans are dumped to; either way
// they are dropped as soon as the run's ledger is built, so a set holds one
// workload's spans at a time.
func runSet(e *env, seed int64, seconds float64, traced bool, spansTo string) ([]*result, error) {
	var out []*result
	for _, name := range workloadNames {
		r, err := runOne(e, name, seed, contractSpec(seconds, traced))
		if err != nil {
			return out, err
		}
		printResult(os.Stdout, r)
		if spansTo != "" && len(r.spans) > 0 {
			if err := writeSpans(filepath.Join(spansTo, "spans-"+name+".jsonl"), r.spans); err != nil {
				return out, err
			}
		}
		r.spans = nil
		out = append(out, r)
	}
	return out, nil
}

// fullSet runs the untraced and the traced set and writes summary.json,
// layers.json and one spans-<workload>.jsonl per network workload to dir.
func fullSet(e *env, seed int64, seconds float64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum := newSummary(e, seed, seconds)
	layers := map[string]*ledger{}
	for _, traced := range []bool{false, true} {
		rs, err := runSet(e, seed, seconds, traced, dir)
		sum.Results = append(sum.Results, rs...)
		if err != nil {
			return err
		}
	}
	for _, r := range sum.Results {
		if r.Traced {
			layers[r.Workload] = r.Ledger
		}
	}
	for _, line := range checkSeparation(layers, true) {
		fmt.Println(line)
	}
	for name, v := range map[string]any{"summary.json": sum, "layers.json": layers} {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFileAtomic(filepath.Join(dir, name), append(data, '\n')); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %s\n", dir)
	for _, r := range sum.Results {
		if !r.Correct {
			return fmt.Errorf("gridlab: %s (traced=%v): %d of %d ops failed", r.Workload, r.Traced, r.Failed, r.Attempted)
		}
	}
	return nil
}

// checkRepeat runs the untraced set twice back to back on the same code and
// prints each end-to-end metric's relative difference beside its bound. It
// is the evidence that the bounds are wider than the machine's own noise,
// and what to run before trusting a small delta.
func checkRepeat(e *env, seed int64, seconds float64) error {
	var sets [2][]*result
	for i := range sets {
		var err error
		if sets[i], err = runSet(e, seed, seconds, false, ""); err != nil {
			return err
		}
	}
	outside := 0
	fmt.Printf("%-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		if !a.Correct || !b.Correct {
			outside++
			fmt.Printf("%-12s failed ops: %d and %d\n", a.Workload, a.Failed, b.Failed)
		}
		for _, d := range endToEndDefs {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := ratio(vb-va, va)
			worse := diff
			if d.Better == "higher" {
				worse = -diff
			}
			mark := ""
			if worse > d.Bound {
				mark = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", a.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
	}
	if outside > 0 {
		return fmt.Errorf("gridlab: %d metric(s) disagree between two runs of the same code by more than their bound", outside)
	}
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "run only this workload and print one JSON result line (default: the full set)")
	seed := flag.Int64("seed", 1, "the only source of randomness: file contents, op order, mechanism assignment")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "with -workload: 1 = traced run printing the per-layer metrics, 0 = untraced run printing the end-to-end metrics")
	outDir := flag.String("out", "", "directory for summary.json, layers.json and the span dumps of a full set (default .bench_build/gridlab/out)")
	repeat := flag.Bool("check-repeat", false, "run the untraced set twice and fail if any end-to-end metric differs by more than its bound")
	updateGolden := flag.Bool("update-golden", false, "re-capture gridlab/golden_sim.json from this commit's simulator and exit")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "gridlab: bad arguments; see -h")
		return 2
	}

	if *updateGolden {
		root, err := moduleRoot()
		if err == nil {
			err = writeGoldenSim(filepath.Join(root, "gridlab", "golden_sim.json"))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "gridlab: cannot pin to one CPU, measuring unpinned:", err)
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(e.runDir)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		if g := liveGrid.Load(); g != nil {
			g.stop()
		}
		os.RemoveAll(e.runDir)
		os.Exit(130)
	}()

	switch {
	case *workloadName != "":
		var r *result
		if r, err = runOne(e, *workloadName, *seed, contractSpec(*seconds, *trace == 1)); err == nil {
			printResult(os.Stderr, r)
			fmt.Println(resultLine(r))
		}
	case *repeat:
		err = checkRepeat(e, *seed, *seconds)
	default:
		dir := *outDir
		if dir == "" {
			dir = filepath.Join(e.base, "out")
		}
		err = fullSet(e, *seed, *seconds, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(e.runDir)
		return 1
	}
	return 0
}
