package stress

import (
	"fmt"
	"math/rand"
	"time"

	"griddles/internal/gns"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
)

// The resolve-heavy arm: pure control-plane overload. Each workflow is a
// burst of GNS resolves — the metadata stampede a wide fan-out stage fires
// at the name service when a thousand tasks open their inputs at once — with
// no bulk data behind it. The sweep runs the same offered-load ladder twice,
// once against a single GNS shard and once against a four-shard ring, with a
// fixed serialized service time per request modeling the store's critical
// section. One shard saturates at 1/Service resolves per second and then
// collapses under retries; four shards split the key space and carry the
// same ladder with headroom, which is exactly the PR's scale-out claim in
// overload form.

// ResolveConfig parameterizes one resolve-heavy sweep arm.
type ResolveConfig struct {
	// Seed fixes the arrival process, as in Config.
	Seed int64
	// BaseRate is the offered load in bursts/sec at multiplier 1.
	BaseRate float64
	// Levels are the offered-load multipliers.
	Levels []int
	// Duration is the arrival window per level.
	Duration time.Duration
	// Deadline is the per-burst completion budget.
	Deadline time.Duration
	// Burst is the number of resolves per workflow.
	Burst int
	// Keys is the working-set size spread across the ring.
	Keys int
	// Shards is the ring width (1 = the pre-sharding deployment).
	Shards int
	// Service is the serialized per-request service time at each shard
	// server — the M/D/1 bottleneck the sweep stresses.
	Service time.Duration
}

// DefaultResolveConfig is the full resolve-heavy shape. With a 1 ms service
// time one shard caps at 1000 resolves/s = 40 bursts/s and a four-shard
// ring at 160 bursts/s, so the ladder (x1 x2 x4 x8 of 25 bursts/s) is
// healthy for both at x1, saturates the single shard from x2, and at x8
// offers 200 bursts/s — past even the ring's capacity, so the top level
// compares two saturated services rather than a saturated one against an
// underworked one.
func DefaultResolveConfig() ResolveConfig {
	return ResolveConfig{
		Seed:     1,
		BaseRate: 25,
		Levels:   []int{1, 2, 4, 8},
		Duration: 20 * time.Second,
		Deadline: 5 * time.Second,
		Burst:    25,
		Keys:     64,
		Shards:   1,
		Service:  time.Millisecond,
	}
}

// SmokeResolveConfig is the scaled-down CI shape of the same sweep.
func SmokeResolveConfig() ResolveConfig {
	c := DefaultResolveConfig()
	c.Duration = 5 * time.Second
	return c
}

// ResolveLevelResult is one point on a resolve sweep curve.
type ResolveLevelResult struct {
	Level      int     `json:"level"`
	OfferedRPS float64 `json:"offered_rps"` // offered resolve rate at this level
	Offered    int     `json:"offered"`
	Completed  int     `json:"completed"`    // bursts finished within deadline
	Late       int     `json:"late"`         // bursts finished past deadline
	Failed     int     `json:"failed"`       // bursts with a failed resolve
	GoodputBPS float64 `json:"goodput_bps"`  // completed bursts / Duration
	ResolvesPS float64 `json:"resolves_ps"`  // successful resolves / drain time
	BurstP50MS float64 `json:"burst_p50_ms"` // burst latency median
	BurstP99MS float64 `json:"burst_p99_ms"` // burst latency p99
	VirtSecs   float64 `json:"virt_duration_s"`
}

// ResolveReport is one arm (one ring width) of the resolve sweep.
type ResolveReport struct {
	Shards int `json:"shards"`
	// CapacityRPS is the ring's aggregate service capacity,
	// Shards/Service resolves per second.
	CapacityRPS float64              `json:"capacity_rps"`
	Levels      []ResolveLevelResult `json:"levels"`
}

// RunResolve executes the resolve-heavy sweep described by cfg.
func RunResolve(cfg ResolveConfig) ResolveReport {
	rep := ResolveReport{
		Shards:      cfg.Shards,
		CapacityRPS: float64(cfg.Shards) * float64(time.Second) / float64(cfg.Service),
	}
	for _, lvl := range cfg.Levels {
		rep.Levels = append(rep.Levels, runResolveLevel(cfg, lvl))
	}
	return rep
}

// resolveRing builds the ring spec for the configured width.
func resolveRing(shards int) string {
	spec := ""
	for s := 0; s < shards; s++ {
		if s > 0 {
			spec += ";"
		}
		spec += fmt.Sprintf("%d=gns%d:5000", s, s)
	}
	return spec
}

// resolveKeys picks cfg.Keys paths balanced across the ring by construction,
// so the arm measures the sharding mechanism rather than hash luck.
func resolveKeys(cfg ResolveConfig, sm gns.ShardMap) []string {
	ring := gns.NewRing(sm)
	perShard := cfg.Keys / cfg.Shards
	if perShard == 0 {
		perShard = 1
	}
	keys := make([]string, 0, perShard*cfg.Shards)
	fill := make(map[uint32]int)
	for i := 0; len(keys) < cap(keys); i++ {
		path := fmt.Sprintf("/stress/key-%04d", i)
		if s := ring.ShardFor("stress", path); fill[s] < perShard {
			fill[s]++
			keys = append(keys, path)
		}
	}
	return keys
}

// runResolveLevel runs one offered-load level on a fresh virtual network.
func runResolveLevel(cfg ResolveConfig, level int) ResolveLevelResult {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	rate := cfg.BaseRate * float64(level)
	arrivals := poissonArrivals(cfg.Seed+int64(level)<<20, rate, cfg.Duration)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))

	sm, err := gns.ParseRing(resolveRing(cfg.Shards))
	if err != nil {
		panic(fmt.Sprintf("stress: resolve ring: %v", err))
	}
	keys := resolveKeys(cfg, sm)

	var agg levelAgg
	var drain float64
	v.Run(func() {
		var seeds []string
		var stops []func()
		for _, s := range sm.Shards {
			seeds = append(seeds, s.Addrs...)
			for _, addr := range s.Addrs {
				host := addr[:len(addr)-len(":5000")]
				srv := gns.NewServer(gns.NewStore(v), v)
				mu := simclock.NewMutex(v)
				srv.SetRequestCost(func() {
					mu.Lock()
					v.Sleep(cfg.Service)
					mu.Unlock()
				})
				l, err := n.Host(host).Listen(addr)
				if err != nil {
					panic(err)
				}
				if err := srv.EnableShard(gns.ShardConfig{
					Map: sm, ID: s.ID, Self: addr, Dialer: n.Host(host),
				}); err != nil {
					panic(err)
				}
				stops = append(stops, rpc.Start(v, "gns-server-"+addr, l, srv.Serve))
			}
		}

		admin := gns.NewShardedClient(n.Host("admin"), seeds, v)
		admin.SetRetry(resolvePolicy(v))
		defer admin.Close()
		for _, path := range keys {
			if _, err := admin.Set("stress", path, gns.Mapping{Mode: gns.ModeLocal, LocalPath: path}); err != nil {
				panic(fmt.Sprintf("stress: seeding %s: %v", path, err))
			}
		}

		// Per-burst key offsets drawn up front so the schedule is a pure
		// function of the seed.
		offsets := make([]int, len(arrivals))
		for i := range offsets {
			offsets[i] = rng.Intn(len(keys))
		}

		wg := simclock.NewWaitGroup(v)
		prev := time.Duration(0)
		for i, at := range arrivals {
			v.Sleep(at - prev)
			prev = at
			off := offsets[i]
			wg.Add(1)
			v.Go(fmt.Sprintf("burst-%d", i), func() {
				defer wg.Done()
				runBurst(v, n, seeds, keys, off, cfg, &agg)
			})
		}
		wg.Wait()
		drain = v.Elapsed().Seconds()
		rpc.StopAll(stops...)()
	})

	var resolves int
	agg.mu.Lock()
	resolves = (agg.completed + agg.late) * cfg.Burst
	agg.mu.Unlock()
	res := ResolveLevelResult{
		Level:      level,
		OfferedRPS: rate * float64(cfg.Burst),
		Offered:    len(arrivals),
		Completed:  agg.completed,
		Late:       agg.late,
		Failed:     agg.failed,
		GoodputBPS: float64(agg.completed) / cfg.Duration.Seconds(),
		BurstP50MS: percentile(agg.openMS, 0.50),
		BurstP99MS: percentile(agg.openMS, 0.99),
		VirtSecs:   drain,
	}
	if drain > 0 {
		res.ResolvesPS = float64(resolves) / drain
	}
	return res
}

// resolvePolicy is the per-burst retry shape: jitter-free for determinism,
// with a per-attempt timeout well under the burst deadline.
func resolvePolicy(v simclock.Clock) retry.Policy {
	return retry.Policy{
		MaxAttempts:    4,
		BaseDelay:      100 * time.Millisecond,
		MaxDelay:       2 * time.Second,
		Multiplier:     2,
		AttemptTimeout: 2 * time.Second,
		Clock:          v,
	}
}

// runBurst resolves cfg.Burst keys round-robin from off through a fresh
// sharded client, the way a task's open loop would.
func runBurst(v simclock.Clock, n *simnet.Network, seeds, keys []string, off int, cfg ResolveConfig, agg *levelAgg) {
	start := v.Now()
	c := gns.NewShardedClient(n.Host(fmt.Sprintf("burst%d", off%8)), seeds, v)
	c.SetRetry(resolvePolicy(v))
	defer c.Close()
	for i := 0; i < cfg.Burst; i++ {
		if _, err := c.Resolve("stress", keys[(off+i)%len(keys)]); err != nil {
			agg.finish(-1, v.Now().Sub(start), cfg.Deadline, err)
			return
		}
	}
	agg.finish(v.Now().Sub(start), v.Now().Sub(start), cfg.Deadline, nil)
}

// Resolve gate tolerances, in the spirit of the admission gate.
const (
	// ResolveMinSpeedup is how much better the sharded arm's aggregate
	// resolve rate must be than the single-shard arm's at the highest
	// offered load.
	ResolveMinSpeedup = 2.5
)

// ResolveGate applies the scale-out acceptance to a matched pair of resolve
// arms (nil means pass): the sharded arm must not collapse as load doubles
// while the offered rate is within the ring's capacity, and at the top level
// its aggregate resolve rate must beat the single shard's by
// ResolveMinSpeedup. Levels offered more than the ring can serve are exempt
// from the monotone check — resolves carry no admission control, so
// past-saturation goodput collapse is the expected physics (the admission
// sweep is where that cliff gets fixed); what scale-out owes is that the
// ring's cliff sits Shards times further out, which the capacity bound and
// the top-level rate ratio pin together.
func ResolveGate(sharded, single ResolveReport) []string {
	var bad []string
	if sharded.Shards <= single.Shards {
		bad = append(bad, fmt.Sprintf("gate needs a sharded arm wider than the single arm: %d vs %d",
			sharded.Shards, single.Shards))
		return bad
	}
	if len(sharded.Levels) == 0 || len(sharded.Levels) != len(single.Levels) {
		bad = append(bad, fmt.Sprintf("arms have mismatched levels: sharded=%d single=%d",
			len(sharded.Levels), len(single.Levels)))
		return bad
	}
	for i := 1; i < len(sharded.Levels); i++ {
		prev, cur := sharded.Levels[i-1], sharded.Levels[i]
		if sharded.CapacityRPS > 0 && cur.OfferedRPS > sharded.CapacityRPS {
			continue // past ring saturation: collapse is admission's problem
		}
		if floor := prev.GoodputBPS * (1 - MonotoneTolerance); cur.GoodputBPS < floor {
			bad = append(bad, fmt.Sprintf(
				"sharded goodput collapsed at x%d: %.2f bursts/s after %.2f at x%d (floor %.2f)",
				cur.Level, cur.GoodputBPS, prev.GoodputBPS, prev.Level, floor))
		}
	}
	top := len(sharded.Levels) - 1
	sTop, oTop := sharded.Levels[top], single.Levels[top]
	if sTop.ResolvesPS < oTop.ResolvesPS*ResolveMinSpeedup {
		bad = append(bad, fmt.Sprintf(
			"sharded arm does not beat single shard at x%d: %.0f vs %.0f resolves/s (need %.1fx)",
			sTop.Level, sTop.ResolvesPS, oTop.ResolvesPS, ResolveMinSpeedup))
	}
	return bad
}

// ResolveBenchMetrics flattens a pair of resolve arms into benchgate's
// schema for the BENCH_*.json record.
func ResolveBenchMetrics(sharded, single ResolveReport) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	add := func(rep ResolveReport) {
		for _, lv := range rep.Levels {
			name := fmt.Sprintf("StressResolve/shards=%d/load=x%d", rep.Shards, lv.Level)
			out[name] = map[string]float64{
				"resolves/s":        lv.ResolvesPS,
				"goodput-bursts/s":  lv.GoodputBPS,
				"virt-ms/burst-p50": lv.BurstP50MS,
				"virt-ms/burst-p99": lv.BurstP99MS,
				"offered-bursts":    float64(lv.Offered),
				"failed-bursts":     float64(lv.Failed + lv.Late),
			}
		}
	}
	add(sharded)
	add(single)
	return out
}
