package experiments

import (
	"sort"
	"strings"
	"testing"

	"griddles/internal/climate"
	"griddles/internal/mech"
)

// reducedClimate is the Table 3-5 workload at 1/8 scale: the same shape in
// an eighth of the virtual (and wall) time.
func reducedClimate() climate.Params {
	p := climate.DefaultParams()
	p.Steps /= 8
	p.Work.CCAM /= 8
	p.Work.CC2LAM /= 8
	p.Work.DARLAM /= 8
	p.ReRead = 4
	return p
}

func reducedMech() mech.Params {
	p := mech.DefaultParams()
	p.FieldRows /= 4
	p.BoundaryN /= 4
	p.GrowthSites /= 4
	p.Work = mech.Works{Chammy: 2.5, Pafec: 70, MakeSF: 5, Fast: 39, Objective: 2.5}
	return p
}

func TestTable1Render(t *testing.T) {
	tab := Table1()
	s := tab.String()
	for _, m := range []string{"dione", "jagan", "koume00", "brecca"} {
		if !strings.Contains(s, m) {
			t.Errorf("table 1 missing %s", m)
		}
	}
	if len(tab.Rows) != 7 {
		t.Errorf("table 1 rows = %d", len(tab.Rows))
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := RunTable2(reducedMech())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	exp := map[int]int64{}
	for _, r := range rows {
		exp[r.Exp] = int64(r.Total)
	}
	// Paper shape: buffers on one machine beat sequential files on the
	// same machine; distributing across faster machines beats both by a
	// large factor.
	if !(exp[2] < exp[1]) {
		t.Errorf("exp2 (%d) not faster than exp1 (%d)", exp[2], exp[1])
	}
	if !(exp[3] < exp[2]) {
		t.Errorf("exp3 (%d) not faster than exp2 (%d)", exp[3], exp[2])
	}
	if float64(exp[3]) > 0.75*float64(exp[1]) {
		t.Errorf("distribution speedup too small: exp3=%d exp1=%d", exp[3], exp[1])
	}
	_ = Table2(rows).String() // rendering must not panic
}

func TestTable3Shape(t *testing.T) {
	rows, err := RunTable3(reducedClimate(), Table3Machines)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Machine] = r
	}
	// Paper ordering: brecca < dione < freak < vpac27 ~ bouscat.
	order := SortedMachines(rows)
	if order[0] != "brecca" || order[1] != "dione" || order[2] != "freak" {
		t.Errorf("total ordering = %v", order)
	}
	// DARLAM ~ 0.47 x C-CAM on every machine.
	for _, r := range rows {
		ratio := float64(r.DARLAM) / float64(r.CCAM)
		if ratio < 0.35 || ratio > 0.60 {
			t.Errorf("%s: DARLAM/CCAM = %.2f, want ~0.47", r.Machine, ratio)
		}
	}
	// cc2lam is negligible.
	for _, r := range rows {
		if float64(r.CC2LAM) > 0.1*float64(r.Total) {
			t.Errorf("%s: cc2lam = %v of total %v", r.Machine, r.CC2LAM, r.Total)
		}
	}
	_ = Table3(rows).String()
}

func TestTable4Shape(t *testing.T) {
	// The full five-machine sweep runs in the benchmarks; the orderings are
	// asserted here on the two machines the paper's analysis hinges on —
	// brecca (buffers beat sequential) and vpac27 (they don't).
	p := reducedClimate()
	machines := []string{"brecca", "vpac27"}
	rows4, err := RunTable4(p, machines)
	if err != nil {
		t.Fatal(err)
	}
	rows3, err := RunTable3(p, machines)
	if err != nil {
		t.Fatal(err)
	}
	seq := map[string]Table3Row{}
	for _, r := range rows3 {
		seq[r.Machine] = r
	}
	for _, r := range rows4 {
		// Buffers always beat concurrent files (paper: "using buffers is
		// always faster than using files when the codes are run on the
		// same system").
		if r.Buffers[2] >= r.Files[2] {
			t.Errorf("%s: buffers (%v) not faster than files (%v)", r.Machine, r.Buffers[2], r.Files[2])
		}
		// Concurrent files are slower than sequential.
		if r.Files[2] <= seq[r.Machine].Total {
			t.Errorf("%s: concurrent files (%v) not slower than sequential (%v)", r.Machine, r.Files[2], seq[r.Machine].Total)
		}
	}
	// The crossover: buffers beat sequential on brecca but not vpac27.
	var brecca, vpac Table4Row
	for _, r := range rows4 {
		if r.Machine == "brecca" {
			brecca = r
		} else {
			vpac = r
		}
	}
	if brecca.Buffers[2] >= seq["brecca"].Total {
		t.Errorf("brecca: buffers (%v) should beat sequential (%v)", brecca.Buffers[2], seq["brecca"].Total)
	}
	if vpac.Buffers[2] <= seq["vpac27"].Total {
		t.Errorf("vpac27: buffers (%v) should lose to sequential (%v)", vpac.Buffers[2], seq["vpac27"].Total)
	}
	_ = Table4(rows4).String()
}

func TestTable5Shape(t *testing.T) {
	// One low-latency pairing and one trans-continental pairing carry the
	// paper's headline crossover; the full six run in the benchmarks.
	p := reducedClimate()
	pairs := []Pairing{{"brecca", "dione"}, {"brecca", "bouscat"}}
	rows, err := RunTable5(p, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Winner() != "buffers" {
		t.Errorf("brecca->dione (low latency): files (%v) beat buffers (%v); paper says buffers win",
			rows[0].FilesDarlam, rows[0].BufDarlam)
	}
	if rows[1].Winner() != "files" {
		t.Errorf("brecca->bouscat (high latency): buffers (%v) beat files (%v); paper says files win",
			rows[1].BufDarlam, rows[1].FilesDarlam)
	}
	// The paper's anomaly: on the high-latency pair, cc2lam's completion is
	// dragged far past C-CAM's by buffer backpressure.
	r := rows[1]
	if r.BufCC2 < r.BufCCAM+(r.BufCCAM/2) {
		t.Errorf("brecca->bouscat: cc2lam (%v) not dragged well past ccam (%v)", r.BufCC2, r.BufCCAM)
	}
	_ = Table5(rows).String()
}

func TestFigures(t *testing.T) {
	for name, dot := range map[string]string{
		"figure1": Figure1DOT(),
		"figure4": Figure4DOT(),
		"figure5": Figure5DOT(),
	} {
		if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "->") {
			t.Errorf("%s is not a graph:\n%s", name, dot)
		}
	}
	if !strings.Contains(Figure5DOT(), "PROFILE_COORD.DAT") {
		t.Error("figure 5 missing the pipeline files")
	}

	trace, err := Figure3Trace()
	if err != nil {
		t.Fatalf("figure 3: %v", err)
	}
	for _, want := range []string{"blocked until written", "seek back", "cache file", "EOF"} {
		if !strings.Contains(trace, want) {
			t.Errorf("figure 3 trace missing %q:\n%s", want, trace)
		}
	}

	ascii, pgm := Figure6(64, 64)
	if len(strings.Split(strings.TrimSpace(ascii), "\n")) != 24 {
		t.Errorf("figure 6 ascii rows wrong:\n%s", ascii)
	}
	if !strings.HasPrefix(string(pgm), "P5\n64 64\n255\n") {
		t.Error("figure 6 pgm header wrong")
	}
}

// SortedMachines returns the Table 3 machines sorted by measured total, for
// shape assertions.
func SortedMachines(rows []Table3Row) []string {
	sorted := append([]Table3Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Total < sorted[j].Total })
	names := make([]string, len(sorted))
	for i, r := range sorted {
		names[i] = r.Machine
	}
	return names
}
