// Package stress drives thousands of simulated workflows against the
// virtual testbed (simclock + simnet + testbed) to pin down how the IO
// services behave under overload. One "workflow" is the paper's file-open
// fast path followed by a bulk stage-in: resolve the logical name at the
// GriddLeS Name Service, open the resolved file on the GridFTP server
// (both control-class RPCs), then fetch the payload over a dedicated bulk
// stream. The harness sweeps offered load over a geometric ladder of
// multipliers, runs each level once with admission control threaded through
// the servers and once without, and reports goodput (workflows completing
// within their deadline per second of the arrival window) and exact
// open-latency percentiles computed from the raw per-workflow samples.
//
// Everything runs on a virtual clock, so a sweep that offers ten thousand
// workflows over minutes of simulated time finishes in seconds of wall
// time. The arrival schedule is a pure function of the seed (a Poisson
// process drawn before any goroutine starts) and retry policies carry no
// jitter, so uncontended levels reproduce exactly; on contended levels
// the Go scheduler still picks among goroutines runnable at the same
// virtual instant, which moves individual outcomes by a fraction of a
// percent — well inside the gate tolerances.
//
// The topology is the paper's Table 1 overload corner: the data service
// (GridFTP + GNS) lives on brecca at VPAC, clients arrive on dione and
// jagan at Monash, and every byte crosses the calibrated 2 ms / 460 KB/s
// Monash<->VPAC link. With 48 KiB payloads one client-host link sustains
// roughly nine to ten workflows per second, so the default ladder (x1 x2
// x4 x8 of 4 wf/s) crosses from comfortable through saturated to twice
// over capacity.
package stress

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"griddles/internal/admit"
	"griddles/internal/gns"
	"griddles/internal/gridftp"
	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
)

// Service placement on the testbed.
const (
	serverHost = "brecca"
	gnsAddr    = "brecca:5000"
	ftpAddr    = "brecca:6000"
	dataPath   = "/data/wf.in"
	jobPath    = "/scratch/wf.in"
)

var clientHosts = []string{"dione", "jagan"}

// Config parameterizes one sweep (one arm: admission on or off).
type Config struct {
	// Seed fixes the arrival process. Runs with equal Seed, Admission and
	// shape are reproducible event-for-event.
	Seed int64
	// BaseRate is the offered load in workflows/sec at multiplier 1.
	BaseRate float64
	// Levels are the offered-load multipliers, swept in order. Each level
	// runs on a fresh virtual grid so levels cannot contaminate each other.
	Levels []int
	// Duration is the arrival window per level; workflows keep running
	// (and retrying) past it until they succeed or exhaust their budget.
	Duration time.Duration
	// Deadline is the per-workflow completion budget; a workflow finishing
	// later counts against goodput even if it eventually succeeds.
	Deadline time.Duration
	// Payload is the per-workflow transfer size in bytes.
	Payload int
	// Admission threads admit.Controllers through the GNS and GridFTP
	// servers; false runs the exact pre-admission server paths.
	Admission bool
}

// DefaultConfig is the full stress shape: 4 wf/s base over x1 x2 x4 x8 for
// 84 s of simulated arrivals per level. Summed over the ladder that offers
// an expected (1+2+4+8)*4*84 = 5040 workflows per arm — both arms together
// are the issue's ~10k-workflow run.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		BaseRate: 4,
		Levels:   []int{1, 2, 4, 8},
		Duration: 84 * time.Second,
		Deadline: 10 * time.Second,
		Payload:  48 << 10,
	}
}

// SmokeConfig is the scaled-down CI shape: the same ladder over a 20 s
// window (~1200 expected workflows per arm). The window is kept long
// enough for the no-admission arm to actually build an overload backlog at
// the top multiplier; much shorter windows end before collapse sets in and
// the gate would be comparing two healthy runs.
func SmokeConfig() Config {
	c := DefaultConfig()
	c.Duration = 20 * time.Second
	return c
}

// LevelResult is one point on a sweep curve.
type LevelResult struct {
	Level      int     `json:"level"`
	OfferedWPS float64 `json:"offered_wps"`
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`       // finished OK within deadline
	Late       int     `json:"late"`            // finished OK past deadline
	Failed     int     `json:"failed"`          // error after retry budget
	GoodputWPS float64 `json:"goodput_wps"`     // Completed / Duration
	OpenP50MS  float64 `json:"open_p50_ms"`     // resolve+open latency median
	OpenP99MS  float64 `json:"open_p99_ms"`     // resolve+open latency p99
	Sheds      int64   `json:"sheds"`           // admit.shed.total across services
	Retries    int64   `json:"retries"`         // retry.attempt.total across ops
	LimitEnd   int64   `json:"limit_end"`       // AIMD limit at end of level (0 = off)
	VirtSecs   float64 `json:"virt_duration_s"` // simulated time to drain the level
}

// Report is one arm of the sweep.
type Report struct {
	Admission bool          `json:"admission"`
	Levels    []LevelResult `json:"levels"`
}

// Run executes the sweep described by cfg and returns its curve.
func Run(cfg Config) Report {
	rep := Report{Admission: cfg.Admission}
	for _, lvl := range cfg.Levels {
		rep.Levels = append(rep.Levels, runLevel(cfg, lvl))
	}
	return rep
}

// levelAgg collects per-workflow outcomes. Guarded by a plain mutex: the
// critical sections never block on virtual time.
type levelAgg struct {
	mu        sync.Mutex
	completed int
	late      int
	failed    int
	openMS    []float64
}

func (a *levelAgg) finish(openLat, total time.Duration, deadline time.Duration, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if openLat >= 0 {
		a.openMS = append(a.openMS, float64(openLat)/float64(time.Millisecond))
	}
	switch {
	case err != nil:
		a.failed++
	case total <= deadline:
		a.completed++
	default:
		a.late++
	}
}

// runLevel runs one offered-load level on a fresh virtual grid.
func runLevel(cfg Config, level int) LevelResult {
	v := simclock.NewVirtualDefault()
	o := obs.New(v)
	rate := cfg.BaseRate * float64(level)
	arrivals := poissonArrivals(cfg.Seed+int64(level)<<20, rate, cfg.Duration)

	var agg levelAgg
	var ftpCtl *admit.Controller
	var virt time.Duration
	v.Run(func() {
		grid := testbed.DefaultGrid(v)
		server := grid.Machine(serverHost)

		payload := make([]byte, cfg.Payload)
		for i := range payload {
			payload[i] = byte(i)
		}
		if err := vfs.WriteFile(server.RawFS(), dataPath, payload); err != nil {
			panic(fmt.Sprintf("stress: seeding payload: %v", err))
		}

		store := gns.NewStore(v)
		for _, h := range clientHosts {
			store.Set(h, jobPath, gns.Mapping{
				Mode: gns.ModeRemote, RemoteHost: ftpAddr, RemotePath: dataPath,
			})
		}
		gnsSrv := gns.NewServer(store, v)
		ftpSrv := gridftp.NewServer(server.FS(), v)
		if cfg.Admission {
			// GNS handles only tiny control RPCs; a generous static limit
			// just bounds the damage of a stampede. The GridFTP controller
			// is the interesting one: AIMD hunts for the concurrency the
			// shared link can carry while keeping per-transfer service time
			// near target, the reserved control share keeps opens ahead of
			// bulk, and the bounded queue sheds the rest with retry hints.
			gnsSrv.SetAdmission(admit.New(admit.Options{
				Service: "gns", MaxConcurrent: 64, QueueDepth: 64,
				Clock: v, Obs: o,
			}))
			ftpCtl = admit.New(admit.Options{
				Service:       "gridftp",
				MaxConcurrent: 32,
				MinConcurrent: 4,
				TargetLatency: 1500 * time.Millisecond,
				QueueDepth:    32,
				MaxQueueWait:  2 * time.Second,
				Clock:         v,
				Obs:           o,
			})
			ftpSrv.SetAdmission(ftpCtl)
		}
		gnsLn, err := server.Listen(gnsAddr)
		if err != nil {
			panic(err)
		}
		ftpLn, err := server.Listen(ftpAddr)
		if err != nil {
			panic(err)
		}
		stop := rpc.StopAll(rpc.Start(v, "gns-server", gnsLn, gnsSrv.Serve), rpc.Start(v, "ftp-server", ftpLn, ftpSrv.Serve))

		wg := simclock.NewWaitGroup(v)
		prev := time.Duration(0)
		for i, at := range arrivals {
			v.Sleep(at - prev)
			prev = at
			host := grid.Machine(clientHosts[i%len(clientHosts)])
			wg.Add(1)
			v.Go(fmt.Sprintf("wf-%d", i), func() {
				defer wg.Done()
				runWorkflow(v, o, host, cfg, &agg)
			})
		}
		wg.Wait()
		virt = v.Elapsed()
		stop()
	})

	res := LevelResult{
		Level:      level,
		OfferedWPS: rate,
		Offered:    len(arrivals),
		Completed:  agg.completed,
		Late:       agg.late,
		Failed:     agg.failed,
		GoodputWPS: float64(agg.completed) / cfg.Duration.Seconds(),
		OpenP50MS:  percentile(agg.openMS, 0.50),
		OpenP99MS:  percentile(agg.openMS, 0.99),
		Sheds:      o.Registry().SumPrefix("admit.shed.total"),
		Retries:    o.Registry().SumPrefix("retry.attempt.total"),
		VirtSecs:   virt.Seconds(),
	}
	if ftpCtl != nil {
		res.LimitEnd = int64(ftpCtl.Limit())
	}
	return res
}

// runWorkflow executes one workflow: resolve, open (the measured "file
// open" path), then the bulk fetch. Both clients share one retry shape —
// jitter-free so the run is deterministic, with a per-attempt timeout well
// under the workflow deadline so a stalled control RPC retries instead of
// eating the whole budget.
func runWorkflow(v simclock.Clock, o *obs.Observer, host *testbed.Machine, cfg Config, agg *levelAgg) {
	pol := retry.Policy{
		MaxAttempts:    4,
		BaseDelay:      100 * time.Millisecond,
		MaxDelay:       2 * time.Second,
		Multiplier:     2,
		AttemptTimeout: 2 * time.Second,
		Clock:          v,
		Obs:            o,
		Src:            host.Name(),
	}
	start := v.Now()
	finish := func(openLat time.Duration, err error) {
		total := v.Now().Sub(start)
		outcome := "ok"
		switch {
		case err != nil:
			outcome = "failed"
		case total > cfg.Deadline:
			outcome = "late"
		}
		o.Counter(obs.Key("stress.workflow.total", "outcome", outcome)).Inc()
		if openLat >= 0 {
			o.Histogram("stress.open_ms").ObserveDuration(openLat)
		}
		agg.finish(openLat, total, cfg.Deadline, err)
	}

	nc := gns.NewClient(host, gnsAddr, v)
	nc.SetRetry(pol)
	defer nc.Close()
	m, err := nc.Resolve(host.Name(), jobPath)
	if err != nil {
		finish(-1, err)
		return
	}

	fc := gridftp.NewClient(host, m.RemoteHost, v)
	fc.SetRetry(pol)
	defer fc.Close()
	f, err := fc.Open(m.RemotePath, os.O_RDONLY)
	if err != nil {
		finish(-1, err)
		return
	}
	openLat := v.Now().Sub(start)
	f.Close()

	n, err := fc.Fetch(m.RemotePath, 0, -1, io.Discard)
	if err == nil && n != int64(cfg.Payload) {
		err = fmt.Errorf("stress: short fetch: %d of %d bytes", n, cfg.Payload)
	}
	finish(openLat, err)
}

// poissonArrivals draws the arrival offsets of a Poisson process with the
// given rate over the window. The draw happens before any goroutine is
// spawned, so the schedule is a pure function of the seed.
func poissonArrivals(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= window.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// percentile reports the p-quantile (0..1) of samples by nearest-rank on a
// sorted copy; 0 when there are no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
