// Command gridpairs measures a change against a parent commit the way the
// choosing-metrics guide asks: N alternating pairs of the BENCHMARK.json
// command, parent and change run back to back on the same seed, the side that
// goes first swapping every pair. The change is the working tree gridpairs is
// run from; the parent is checked out with `git worktree` under
// .bench_build/pairs/ and removed afterwards. For every end-to-end metric it
// prints both medians and quartiles, the pairs won, and a verdict from the
// metric's bound and the guide's gain rule (see verdict.go).
//
//	go run ./cmd/gridpairs -parent HEAD~1 -workload file_read,open_storm -pairs 10
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// benchmark is what gridpairs reads of BENCHMARK.json.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	EndToEnd   []metric `json:"end_to_end"`
}

// result is the one JSON line a run of the benchmark command prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseResult finds the result line in a run's standard output: its last
// line that is a JSON object.
func parseResult(stdout []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		var r result
		if bytes.HasPrefix(lines[i], []byte("{")) && json.Unmarshal(lines[i], &r) == nil {
			return r, nil
		}
	}
	return result{}, errors.New("no JSON result line on standard output")
}

func main() { os.Exit(compare()) }

// compare runs the pairs and reports 1 when a run was wrong, a metric
// regressed beyond its bound or a larger share of operations failed.
func compare() int {
	log.SetFlags(0)
	log.SetPrefix("gridpairs: ")
	parent := flag.String("parent", "HEAD", "git revision the working tree is compared against")
	workloads := flag.String("workload", "", "comma-separated BENCHMARK.json workloads to run")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload")
	seed := flag.Int64("seed", 101, "seed of the first pair; pair i runs both sides on seed+i")
	flag.Parse()
	if *workloads == "" || *pairs < 1 {
		log.Fatal("usage: gridpairs -parent REF -workload W[,W...] -pairs N [-seed S]")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		log.Fatalf("run from the repository root: %v", err)
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil || len(bm.Command) == 0 {
		log.Fatalf("BENCHMARK.json: no command (%v)", err)
	}

	// An interrupted comparison must not leave a run measuring on, nor a
	// worktree registered in .git: ^C stops the run in progress and falls
	// through to the deferred removal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tree := filepath.Join(".bench_build", "pairs", "parent")
	git("worktree", "remove", "--force", tree) // left by an interrupted run; absent otherwise
	if out, err := git("worktree", "add", "--detach", "--force", tree, *parent); err != nil {
		log.Fatalf("git worktree add %s: %v\n%s", *parent, err, out)
	}
	defer git("worktree", "remove", "--force", tree)
	dirs := map[string]string{"parent": tree, "change": "."}

	status := 0
	bad := func(b bool) {
		if b {
			status = 1
		}
	}
	for _, w := range strings.Split(*workloads, ",") {
		values := map[string]map[string][]float64{"parent": {}, "change": {}} // side -> metric -> one value per pair
		ops := map[string]*[2]int{"parent": {}, "change": {}}                 // side -> {attempted, failed}
		for i := 0; i < *pairs; i++ {
			order := []string{"parent", "change"}
			if i%2 == 1 {
				order = []string{"change", "parent"}
			}
			for _, side := range order {
				r, err := run(ctx, bm, dirs[side], w, *seed+int64(i))
				if err != nil {
					log.Printf("%s %s seed %d: %v", w, side, *seed+int64(i), err)
					return 1
				}
				ops[side][0] += r.Attempted
				ops[side][1] += r.Failed
				ran := "second"
				if side == order[0] {
					ran = "first"
				}
				line := fmt.Sprintf("%s pair %d seed %d %s (ran %s): correct=%v failed=%d/%d", w, i+1, *seed+int64(i), side, ran, r.Correct, r.Failed, r.Attempted)
				for _, m := range bm.EndToEnd {
					values[side][m.Name] = append(values[side][m.Name], r.Metrics[m.Name].Value)
					line += fmt.Sprintf(" %s=%.4g", m.Name, r.Metrics[m.Name].Value)
				}
				fmt.Println(line)
				bad(!r.Correct)
			}
		}
		for _, m := range bm.EndToEnd {
			s := summarize(m, values["parent"][m.Name], values["change"][m.Name])
			fmt.Printf("%-12s %-14s (%s, bound %.0f%%)  %v\n", w, m.Name, m.Better, 100*m.Bound, s)
			bad(s.Verdict == verdictRegression)
		}
		pa, ch := ops["parent"], ops["change"]
		fmt.Printf("%-12s failed ops: parent %d/%d, change %d/%d\n", w, pa[1], pa[0], ch[1], ch[0])
		// A larger share of failed operations is a regression whatever the metrics say.
		bad(ch[1]*pa[0] > pa[1]*ch[0])
	}
	return status
}

// run runs the benchmark command once in dir, with nothing else running.
func run(ctx context.Context, bm benchmark, dir, workload string, seed int64) (result, error) {
	args := append(append([]string(nil), bm.Command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(bm.RunSeconds), "--trace", "0")
	cmd := exec.CommandContext(ctx, bm.Command[0], args...)
	cmd.Dir = dir
	ownGroup(cmd)
	cmd.Cancel = func() error { return interrupt(cmd) }
	cmd.WaitDelay = 10 * time.Second // then the group's pipes are closed and Wait returns
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%v\n%s", err, stderr.Bytes())
	}
	return parseResult(out)
}

func git(args ...string) ([]byte, error) { return exec.Command("git", args...).CombinedOutput() }
