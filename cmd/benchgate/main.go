// Command benchgate turns `go test -bench` output into a JSON metrics file
// and gates changes against a checked-in baseline.
//
//	benchgate -parse bench.out -o BENCH_pr3.json
//	benchgate -compare BENCH_baseline.json BENCH_pr3.json
//
// Comparison is direction-aware: metrics whose unit contains "/s" are
// throughputs (higher is better); everything else is a cost (lower is
// better). Deterministic metrics — simulated-clock "virt-*" readings,
// allocs/op and overhead percentages — are held to the strict tolerance
// (default 10%) and gate the run. Wall-clock metrics (ns/op, B/op, MB/s)
// wobble arbitrarily at -benchtime 1x under machine load, so by default
// they are compared and reported but never fail the gate; -gate-wall
// enforces them too, with the tolerance widened by -wall-slack.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Report is the JSON schema: benchmark name -> metric unit -> value.
type Report struct {
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func main() {
	parse := flag.String("parse", "", "parse a `go test -bench` output file")
	out := flag.String("o", "", "JSON output path for -parse (default stdout)")
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative regression on deterministic metrics")
	wallSlack := flag.Float64("wall-slack", 10.0, "tolerance multiplier for wall-clock metrics (with -gate-wall)")
	gateWall := flag.Bool("gate-wall", false, "fail on wall-clock metric regressions too (noisy at -benchtime 1x)")
	flag.Parse()

	switch {
	case *parse != "":
		rep, err := parseBench(*parse)
		if err != nil {
			fatal(err)
		}
		data, _ := json.MarshalIndent(rep, "", "  ")
		data = append(data, '\n')
		if *out == "" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	case flag.NArg() == 2:
		base, err := load(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := load(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !compare(base, cur, *tolerance, *wallSlack, *gateWall) {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: benchgate -parse bench.out [-o out.json]")
		fmt.Fprintln(os.Stderr, "       benchgate [-tolerance 0.10] [-wall-slack 5] baseline.json current.json")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

func load(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r)
}

// parseBench extracts "Benchmark..." result lines. A line is: name,
// iteration count, then value/unit pairs.
func parseBench(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	rep := Report{Benchmarks: map[string]map[string]float64{}}
	var names []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line
		}
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			metrics[fields[i+1]] = v
		}
		if len(metrics) > 0 {
			rep.Benchmarks[fields[0]] = metrics
			names = append(names, fields[0])
		}
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	trimCPUSuffix(rep, names)
	return rep, sc.Err()
}

// trimCPUSuffix drops go's "-<GOMAXPROCS>" name suffix. Sub-benchmark names
// legitimately end in numbers too ("block-4096"), so the suffix is only a
// CPU count — and only stripped — when every result line carries the same
// one.
func trimCPUSuffix(rep Report, names []string) {
	common := ""
	for _, name := range names {
		i := strings.LastIndex(name, "-")
		if i < 0 {
			return
		}
		if _, err := strconv.Atoi(name[i+1:]); err != nil {
			return
		}
		if common == "" {
			common = name[i:]
		} else if name[i:] != common {
			return
		}
	}
	for _, name := range names {
		rep.Benchmarks[strings.TrimSuffix(name, common)] = rep.Benchmarks[name]
		delete(rep.Benchmarks, name)
	}
}

// higherIsBetter reports the metric's direction from its unit name.
// Throughputs ("/s"), speedup ratios ("speedup-x"), hit rates ("hit-%") and
// overlap shares ("hidden-%") improve upward; everything else is a cost.
// Simulated-clock readings are durations — checked first, so a sub-label
// like "virt-s/single" can't be mistaken for a throughput by its "/s" —
// except the simulated byte rates ("virt-KB/s", "virt-MB/s").
func higherIsBetter(unit string) bool {
	if strings.HasPrefix(unit, "virt-") {
		return strings.HasSuffix(unit, "B/s")
	}
	return strings.Contains(unit, "/s") ||
		strings.Contains(unit, "speedup-x") ||
		strings.Contains(unit, "hit-%") ||
		strings.Contains(unit, "hidden-%")
}

// deterministic reports whether the metric is noise-free (simulated clock,
// allocation counts, exact wire-byte counts, ratios of simulated readings)
// and so gets the strict tolerance. Plain "bytes" is the simulated wire's
// exact transfer volume — deterministic and lower-better; "journal-bytes"
// keeps the wall-metric slack (journal size varies with retry
// timing). "resolves/s" rates are derived from the virtual clock
// (higher-better via the "/s" rule) and "rpcs" is an exact request count,
// so both gate strictly.
func deterministic(unit string) bool {
	return strings.HasPrefix(unit, "virt-") ||
		strings.HasPrefix(unit, "resolves/s") ||
		unit == "allocs/op" ||
		unit == "bytes" ||
		unit == "rpcs" ||
		strings.Contains(unit, "overhead") ||
		strings.Contains(unit, "speedup-x") ||
		strings.Contains(unit, "hit-%") ||
		strings.Contains(unit, "hidden-%")
}

func compare(base, cur Report, tolerance, wallSlack float64, gateWall bool) bool {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		curMetrics, present := cur.Benchmarks[name]
		if !present {
			fmt.Printf("FAIL %s: benchmark missing from current run\n", name)
			ok = false
			continue
		}
		units := make([]string, 0, len(base.Benchmarks[name]))
		for unit := range base.Benchmarks[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv := base.Benchmarks[name][unit]
			cv, present := curMetrics[unit]
			if !present {
				fmt.Printf("FAIL %s %s: metric missing from current run\n", name, unit)
				ok = false
				continue
			}
			wall := !deterministic(unit)
			tol := tolerance
			if wall {
				tol *= wallSlack
			}
			var regressed bool
			var delta float64
			if bv != 0 {
				delta = (cv - bv) / bv
			}
			if higherIsBetter(unit) {
				regressed = bv > 0 && cv < bv*(1-tol)
			} else {
				regressed = bv > 0 && cv > bv*(1+tol)
			}
			status := "ok  "
			if regressed {
				if wall && !gateWall {
					status = "warn" // wall noise: reported, not gated
				} else {
					status = "FAIL"
					ok = false
				}
			}
			fmt.Printf("%s %s %s: %.4g -> %.4g (%+.1f%%, tol %.0f%%)\n",
				status, name, unit, bv, cv, delta*100, tol*100)
		}
	}
	if !ok {
		fmt.Println("benchgate: performance regression against the baseline")
	}
	return ok
}
