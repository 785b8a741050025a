// Command stress runs the overload sweeps of internal/stress.
//
// The admission sweep offers thousands of simulated workflows (GNS resolve
// -> GridFTP open -> bulk fetch) at x1 x2 x4 x8 of the base rate across the
// virtual Monash<->VPAC link, once with admission control on the servers and
// once without, and applies the no-collapse gate (admission-on goodput must
// be monotone-ish as load doubles and must beat admission-off at the top
// level).
//
// The resolve-heavy arm offers bursts of pure GNS resolves over the same
// ladder against a single name-service shard and against a four-shard ring,
// and applies the scale-out gate (the sharded arm must not collapse and must
// beat the single shard's aggregate resolve rate at the top level).
//
// With -o, both sets of curves merge into a BENCH_*.json record (`make
// stress` passes the current PR's $(BENCH_OUT)).
//
//	stress                  # full ~10k-workflow sweep, gate only (no file)
//	stress -smoke           # scaled-down CI shape, gate only (no file)
//	stress -o curves.json   # full sweep, curves merged into that record
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"griddles/internal/stress"
)

func main() {
	smoke := flag.Bool("smoke", false, "run the scaled-down CI shape and skip the JSON record")
	out := flag.String("o", "", "benchmark record to merge the curves into (empty = skip)")
	seed := flag.Int64("seed", 0, "override the arrival-process seed (0 = config default)")
	flag.Parse()

	cfg := stress.DefaultConfig()
	if *smoke {
		cfg = stress.SmokeConfig()
		*out = ""
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	arms := make(map[bool]stress.Report, 2)
	for _, admission := range []bool{false, true} {
		cfg.Admission = admission
		rep := stress.Run(cfg)
		arms[admission] = rep
		printArm(rep)
	}

	if *out != "" {
		if err := merge(*out, stress.BenchMetrics(arms[true], arms[false])); err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		fmt.Printf("curves merged into %s\n", *out)
	}

	if bad := stress.Gate(arms[true], arms[false]); len(bad) > 0 {
		for _, b := range bad {
			fmt.Println("GATE FAIL:", b)
		}
		os.Exit(1)
	}
	fmt.Println("no-collapse gate: PASS")

	rcfg := stress.DefaultResolveConfig()
	if *smoke {
		rcfg = stress.SmokeResolveConfig()
	}
	if *seed != 0 {
		rcfg.Seed = *seed
	}
	rarms := make(map[int]stress.ResolveReport, 2)
	for _, shards := range []int{1, 4} {
		rcfg.Shards = shards
		rep := stress.RunResolve(rcfg)
		rarms[shards] = rep
		printResolveArm(rep)
	}
	if *out != "" {
		if err := merge(*out, stress.ResolveBenchMetrics(rarms[4], rarms[1])); err != nil {
			fmt.Fprintln(os.Stderr, "stress:", err)
			os.Exit(1)
		}
		fmt.Printf("resolve curves merged into %s\n", *out)
	}
	if bad := stress.ResolveGate(rarms[4], rarms[1]); len(bad) > 0 {
		for _, b := range bad {
			fmt.Println("GATE FAIL:", b)
		}
		os.Exit(1)
	}
	fmt.Println("resolve scale-out gate: PASS")
}

func printResolveArm(rep stress.ResolveReport) {
	fmt.Printf("\nresolve-heavy, %d shard(s)\n", rep.Shards)
	fmt.Printf("%6s %8s %8s %6s %6s %10s %12s %10s %10s\n",
		"load", "offered", "done", "late", "fail", "goodput", "resolves/s", "burst-p50", "burst-p99")
	for _, lv := range rep.Levels {
		fmt.Printf("%6s %8d %8d %6d %6d %10.2f %12.0f %9.1fms %9.1fms\n",
			fmt.Sprintf("x%d", lv.Level), lv.Offered, lv.Completed, lv.Late, lv.Failed,
			lv.GoodputBPS, lv.ResolvesPS, lv.BurstP50MS, lv.BurstP99MS)
	}
}

func printArm(rep stress.Report) {
	label := "admission off"
	if rep.Admission {
		label = "admission on"
	}
	fmt.Printf("\n%s\n", label)
	fmt.Printf("%6s %8s %8s %6s %6s %8s %10s %10s %8s %8s\n",
		"load", "offered", "done", "late", "fail", "goodput", "open-p50", "open-p99", "sheds", "retries")
	for _, lv := range rep.Levels {
		fmt.Printf("%6s %8d %8d %6d %6d %8.2f %9.1fms %9.1fms %8d %8d\n",
			fmt.Sprintf("x%d", lv.Level), lv.Offered, lv.Completed, lv.Late, lv.Failed,
			lv.GoodputWPS, lv.OpenP50MS, lv.OpenP99MS, lv.Sheds, lv.Retries)
	}
}

// merge overlays the stress curves onto an existing benchgate record,
// creating it if absent; non-Stress entries (the regular bench suite) are
// preserved.
func merge(path string, metrics map[string]map[string]float64) error {
	rec := struct {
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	}{Benchmarks: map[string]map[string]float64{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if rec.Benchmarks == nil {
		rec.Benchmarks = map[string]map[string]float64{}
	}
	for name, m := range metrics {
		rec.Benchmarks[name] = m
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
