package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"griddles/internal/climate"
	"griddles/internal/experiments"
)

// sim_grid: the paper's Table 5 rows on the simulated testbed, in-process.
// It is the only workload through workflow, testbed, simnet, simclock and
// climate — the kernel every test, chaos matrix and paper table pays for in
// wall time and the network workloads never touch. An op is one row (a
// files run and a buffers run of the climate pipeline across two
// machines); the six rows cycle for the measured time, and every row is
// checked against golden_sim.json: its virtual seconds may not move by more
// than simTolerance, and its files-vs-buffers verdict may not flip.
//
// Table 4 is left out: its files-coupled same-machine runs are not
// schedule-deterministic (brecca finishes at 97.1 or 115.6 virtual seconds
// depending on which goroutine the Go scheduler runs first at a shared
// virtual instant), so a golden check on them fails on an unchanged tree.
// probeSim times them, unchecked.

// simScale divides the paper-calibrated climate workload. At 1/16 a row
// costs about an eighth of a second of wall time, so a measured window
// holds several full cycles of the rows and the window rates do not depend
// on which rows a window happened to catch.
const simScale = 16

const simTolerance = 0.10

//go:embed golden_sim.json
var goldenSimJSON []byte

// simRow is one row's outcome: DARLAM's finish under each coupling, in
// virtual seconds, and which coupling won.
type simRow struct {
	FilesS   float64 `json:"files_s"`
	BuffersS float64 `json:"buffers_s"`
	Winner   string  `json:"winner"`
}

func simParams() climate.Params {
	p := climate.DefaultParams()
	p.Steps /= simScale
	p.Work.CCAM /= simScale
	p.Work.CC2LAM /= simScale
	p.Work.DARLAM /= simScale
	p.ReRead = 1
	return p
}

// simRowBytes is the payload one row moves through simulated FMs: two runs
// (files, buffers) of both coupling streams.
func simRowBytes(p climate.Params) int64 {
	return int64(2 * p.Steps * 8 * (p.G*p.G + p.R*p.R))
}

func simRowName(pair experiments.Pairing) string { return "table5/" + pair.Src + "-" + pair.Dst }

// runSimRow simulates one Table 5 pairing.
func runSimRow(pair experiments.Pairing) (simRow, error) {
	rows, err := experiments.RunTable5(simParams(), []experiments.Pairing{pair})
	if err != nil {
		return simRow{}, err
	}
	r := rows[0]
	return simRow{r.FilesDarlam.Seconds(), r.BufDarlam.Seconds(), r.Winner()}, nil
}

// checkSimRow compares a row against its golden record.
func checkSimRow(name string, got, want simRow) error {
	moved := func(a, b float64) bool { return math.Abs(a-b) > simTolerance*b }
	switch {
	case moved(got.FilesS, want.FilesS):
		return fmt.Errorf("%s: files run took %.1f virtual s, golden %.1f", name, got.FilesS, want.FilesS)
	case moved(got.BuffersS, want.BuffersS):
		return fmt.Errorf("%s: buffers run took %.1f virtual s, golden %.1f", name, got.BuffersS, want.BuffersS)
	case got.Winner != want.Winner:
		return fmt.Errorf("%s: %s won, golden says %s", name, got.Winner, want.Winner)
	}
	return nil
}

type simWorkload struct {
	golden map[string]simRow
	n      int
}

func (w *simWorkload) name() string { return "sim_grid" }
func (w *simWorkload) clients() int { return 1 }

// prepare loads the golden rows. The grid is up but unused: set-up is the
// same deployment for every workload, so setup_s means the same thing on
// each.
func (w *simWorkload) prepare(_ *grid, seed int64, _ *tracer) error {
	if err := json.Unmarshal(goldenSimJSON, &w.golden); err != nil {
		return fmt.Errorf("golden_sim.json: %w", err)
	}
	// The simulation is deterministic; the seed only picks where the cycle
	// starts.
	w.n = int(uint64(seed) % uint64(len(experiments.Table5Pairings)))
	return nil
}

func (w *simWorkload) op(_ int, _ bool, epoch time.Time) opRec {
	pair := experiments.Table5Pairings[w.n%len(experiments.Table5Pairings)]
	w.n++
	name := simRowName(pair)
	rec := opRec{kind: opSim, scheme: noScheme, start: time.Since(epoch)}
	row, err := runSimRow(pair)
	rec.end = time.Since(epoch)
	if err == nil {
		want, ok := w.golden[name]
		if !ok {
			err = fmt.Errorf("%s: no golden row", name)
		} else {
			err = checkSimRow(name, row, want)
		}
	}
	if err != nil {
		rec.err = err
		return rec
	}
	rec.bytes = simRowBytes(simParams())
	rec.virtS = row.FilesS + row.BuffersS
	return rec
}

func (w *simWorkload) finish(time.Time) []opRec { return nil }
func (w *simWorkload) close()                   {}

// writeGoldenSim runs every row once and writes golden_sim.json.
func writeGoldenSim(path string) error {
	golden := make(map[string]simRow)
	for _, pair := range experiments.Table5Pairings {
		row, err := runSimRow(pair)
		if err != nil {
			return err
		}
		golden[simRowName(pair)] = row
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}
