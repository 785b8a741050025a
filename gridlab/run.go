package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opDeadline bounds every operation. The FM's calls take no context, so
// the watchdog enforces it from outside: when an op overruns, it stops the
// grid, which turns every blocked client call into an error. A timeout is
// a failed op, never a hang.
const opDeadline = 10 * time.Second

// stuckGrace is how long a client gets to notice that the grid is gone.
const stuckGrace = 3 * time.Second

// Kinds of operation a workload can report.
const (
	opRead = iota
	opWrite
	opStream
	opSet
	opSim
	opVerify // a post-window read-back: counted as attempted, not timed
)

// noScheme marks ops that go through no FM mechanism (GNS Set, sim rows).
// Scheme indices otherwise are gns.Mode values.
const noScheme = 0xff

// opRec is one closed-loop operation as the application saw it. Times are
// offsets from the run's epoch.
type opRec struct {
	client     int
	kind       uint8
	scheme     uint8
	traced     bool
	start, end time.Duration
	first      time.Duration // first byte returned by Read / first Write returned; 0 = none
	closeDur   time.Duration // the Close call; 0 = none
	bytes      int64         // verified payload delivered to the application
	virtS      float64       // sim_grid: the virtual seconds the row simulated
	traceOps   []uint32      // tracer op ids (pipe_stream has one per side)
	err        error         // nil = completed and byte-correct
}

// workload is one traffic mix. prepare runs inside the timed set-up; op
// runs one closed-loop operation for client c, through the traced FM when
// asked; finish runs the checks that have to wait for the window to end.
type workload interface {
	name() string
	prepare(g *grid, seed int64, traced *tracer) error
	clients() int
	op(c int, traced bool, epoch time.Time) opRec
	finish(epoch time.Time) []opRec
	close()
}

// snapshot is the cumulative resource use read at one instant.
type snapshot struct {
	at        time.Duration
	clientCPU time.Duration
	daemonCPU [numSvc]time.Duration
	mem       runtime.MemStats
}

func takeSnapshot(g *grid, epoch time.Time) snapshot {
	s := snapshot{at: time.Since(epoch)}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.clientCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if g != nil {
		s.daemonCPU = g.cpu()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// runResult is everything one measured run produced.
type runResult struct {
	ops      []opRec // every op of every client, in completion order
	from, to snapshot
	warm     time.Duration
	measure  time.Duration
	timedOut bool // the watchdog stopped the grid
	stuck    bool // and a client never came back: its FM must not be touched again
}

// drive runs the workload's clients closed-loop for warm+measure and
// brackets the measured part with resource snapshots. With traced set, a
// seeded coin sends each op through the traced or the plain FM, so one run
// yields both sides of the tracing-overhead comparison under the same load.
//
// When an op overruns opDeadline the watchdog dumps every goroutine's
// stack, stops the grid and gives the clients stuckGrace to come back with
// errors; a client that still does not return is abandoned, so drive itself
// always returns.
func drive(w workload, g *grid, seed int64, warm, measure time.Duration, traced bool) *runResult {
	res := &runResult{warm: warm, measure: measure}
	epoch := time.Now()
	stopAt := warm + measure
	n := w.clients()
	var mu sync.Mutex // guards ops: an abandoned client may still append
	var ops []opRec
	inOp := make([]atomic.Int64, n) // start offset of the op in progress, 0 = idle
	var aborted atomic.Bool

	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			coin := rand.New(rand.NewSource(seed*31 + int64(c) + 7))
			failures := 0
			for !aborted.Load() {
				now := time.Since(epoch)
				if now >= stopAt {
					return
				}
				inOp[c].Store(int64(now) + 1)
				rec := w.op(c, traced && coin.Intn(2) == 1, epoch)
				inOp[c].Store(0)
				rec.client = c
				mu.Lock()
				ops = append(ops, rec)
				mu.Unlock()
				if rec.err == nil {
					failures = 0
					continue
				}
				if failures++; failures <= 3 {
					fmt.Fprintf(os.Stderr, "gridlab: %s: client %d: op failed: %v\n", w.name(), c, rec.err)
				}
				if failures >= 10 {
					return // the grid is gone; do not spin on instant errors
				}
			}
		}(c)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	warmed := time.After(warm)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var giveUp <-chan time.Time
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-giveUp:
			fmt.Fprintf(os.Stderr, "gridlab: %s: a client is still stuck %v after the grid stopped; abandoning it\n", w.name(), stuckGrace)
			res.stuck = true
			running = false
		case <-warmed:
			res.from = takeSnapshot(g, epoch)
		case <-tick.C:
			now := time.Since(epoch)
			for c := range inOp {
				if at := inOp[c].Load(); at != 0 && now-time.Duration(at) > opDeadline && !aborted.Swap(true) {
					fmt.Fprintf(os.Stderr, "gridlab: %s: client %d: op exceeded %v; stopping the grid. Goroutines:\n", w.name(), c, opDeadline)
					pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
					res.timedOut = true
					if g != nil {
						g.stop()
					}
					giveUp = time.After(stuckGrace)
				}
			}
		}
	}
	res.to = takeSnapshot(g, epoch)
	if res.from.at == 0 {
		res.from = res.to // the clients gave up before the warm-up ended
	}
	mu.Lock()
	res.ops = append(res.ops, ops...)
	mu.Unlock()
	if !res.stuck {
		res.ops = append(res.ops, w.finish(epoch)...)
	}
	return res
}

// measured reports whether an op counts toward the latency samples and the
// attempted/failed tally: it ended inside the measured part of the run.
func (r *runResult) measured(op opRec) bool { return op.end >= r.warm }

// windows reports the measured part's window count and width: three-second
// windows, never fewer than three.
func (r *runResult) windows() (int, time.Duration) {
	n := max(3, int(r.measure/(3*time.Second)))
	return n, r.measure / time.Duration(n)
}
