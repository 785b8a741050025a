// Command benchtables regenerates the paper's evaluation: every table
// (1-5) and figure (1, 3, 4, 5, 6) of "A Flexible IO Scheme for Grid
// Workflows" (IPPS 2004), on the simulated Table 1 testbed.
//
// Usage:
//
//	benchtables [-table all|1|2|3|4|5] [-figure none|all|1|3|4|5|6]
//	            [-scale N] [-out DIR] [-trace FILE]
//
// -scale divides the workload (steps and work units) for quick runs; the
// default 1 is the paper-calibrated full scale (a few minutes of wall time
// for everything). Figure artefacts (DOT files, the Figure 6 PGM) are
// written to -out. -trace streams the JSONL event log of every experiment
// environment (see OBSERVABILITY.md) to FILE.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"griddles/internal/experiments"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: all, none, 1, 2, 3, 4 or 5")
	figure := flag.String("figure", "none", "figure to regenerate: none, all, 1, 3, 4, 5 or 6")
	scale := flag.Int("scale", 1, "workload divisor (1 = paper scale)")
	out := flag.String("out", ".", "directory for figure artefacts")
	trace := flag.String("trace", "", "stream the experiments' JSONL event log to this file")
	flag.Parse()
	if *scale < 1 {
		fmt.Fprintln(os.Stderr, "benchtables: -scale must be >= 1")
		os.Exit(2)
	}
	if *trace != "" {
		tf, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := tf.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "benchtables: closing trace: %v\n", err)
			} else {
				fmt.Printf("wrote trace %s\n", *trace)
			}
		}()
		experiments.SetTraceSink(tf)
	}

	cp, mp := experiments.ScaledParams(*scale)

	want := func(n string) bool { return *table == "all" || *table == n }
	start := time.Now()

	if want("1") {
		fmt.Println(experiments.Table1())
	}
	if want("2") {
		run("table 2", func() error {
			rows, err := experiments.RunTable2(mp)
			if err != nil {
				return err
			}
			fmt.Println(experiments.Table2(rows))
			return nil
		})
	}
	if want("3") {
		run("table 3", func() error {
			rows, err := experiments.RunTable3(cp, experiments.Table3Machines)
			if err != nil {
				return err
			}
			fmt.Println(experiments.Table3(rows))
			return nil
		})
	}
	if want("4") {
		run("table 4", func() error {
			rows, err := experiments.RunTable4(cp, experiments.Table3Machines)
			if err != nil {
				return err
			}
			fmt.Println(experiments.Table4(rows))
			return nil
		})
	}
	if want("5") {
		run("table 5", func() error {
			rows, err := experiments.RunTable5(cp, experiments.Table5Pairings)
			if err != nil {
				return err
			}
			fmt.Println(experiments.Table5(rows))
			for _, r := range rows {
				fmt.Printf("  %s->%s: %s win\n", r.Pair.Src, r.Pair.Dst, r.Winner())
			}
			fmt.Println()
			return nil
		})
	}

	wantFig := func(n string) bool { return *figure == "all" || *figure == n }
	writeArtefact := func(name string, data []byte) {
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if wantFig("1") {
		writeArtefact("figure1.dot", []byte(experiments.Figure1DOT()))
	}
	if wantFig("3") {
		trace, err := experiments.Figure3Trace()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: figure 3: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("Figure 3 — direct connection with cache file (event trace)")
		fmt.Println(trace)
	}
	if wantFig("4") {
		writeArtefact("figure4.dot", []byte(experiments.Figure4DOT()))
	}
	if wantFig("5") {
		writeArtefact("figure5.dot", []byte(experiments.Figure5DOT()))
	}
	if wantFig("6") {
		ascii, pgm := experiments.Figure6(256, 256)
		fmt.Println("Figure 6 — stress distribution for the default hole shape")
		fmt.Println(ascii)
		writeArtefact("figure6.pgm", pgm)
	}

	if *table != "none" {
		fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	}
}

func run(name string, fn func() error) {
	if err := fn(); err != nil {
		fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", name, err)
		os.Exit(1)
	}
}
