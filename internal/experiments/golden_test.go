package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables_scale16.golden from this tree")

// TestTablesGolden pins what `benchtables -scale 16` prints: Tables 1, 2, 3
// and 5 whole, Table 4 with its files column masked (those same-machine runs
// depend on which same-instant goroutine the Go scheduler wakes first, see
// ROADMAP "A simulator that is actually deterministic"). A change that claims
// no behaviour change leaves the golden byte-identical; one that moves a
// default adds the old value to core.Paper2004 and still leaves it alone.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("2 s of simulated tables")
	}
	cp, mp := ScaledParams(16)
	var b bytes.Buffer
	fmt.Fprintln(&b, Table1())
	t2, err := RunTable2(mp)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, Table2(t2))
	t3, err := RunTable3(cp, Table3Machines)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, Table3(t3))
	t4, err := RunTable4(cp, Table3Machines)
	if err != nil {
		t.Fatal(err)
	}
	tab4 := Table4(t4)
	for _, r := range tab4.Rows {
		r.Cells[1] = "(schedule-dependent)"
	}
	fmt.Fprintln(&b, tab4)
	t5, err := RunTable5(cp, Table5Pairings)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&b, Table5(t5))
	for _, r := range t5 {
		fmt.Fprintf(&b, "  %s->%s: %s win\n", r.Pair.Src, r.Pair.Dst, r.Winner())
	}

	golden := filepath.Join("testdata", "tables_scale16.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (record it with go test ./internal/experiments -run TestTablesGolden -update)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("rendered tables differ from %s\n--- got\n%s\n--- want\n%s", golden, b.Bytes(), want)
	}
}
