package chaos

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
)

// Sharded-GNS chaos: the consumer's FM resolves through a sharded,
// lease-replicated name service instead of the embedded store, while shard
// members fail. Output must stay byte-identical to the mechanism's
// embedded-store run in every scenario — the name-service deployment is
// invisible to the application, which is the paper's reconfiguration
// property extended to the service's own failures.

// gnsRing is the cluster used by the shard chaos cells: two shards, each
// primary + replica, on hosts of their own so faults can cut exactly one
// member.
const gnsRing = "0=gnsa:5100,gnsar:5100;1=gnsb:5100,gnsbr:5100"

// startGNSCluster boots one server per member of spec on the grid network,
// wired into the shared observer. Must run inside V.Run.
func startGNSCluster(t *testing.T, e *Env, spec string) (seeds []string, closeAll func()) {
	t.Helper()
	sm, err := gns.ParseRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	n := e.Grid.Network()
	var stops []func()
	for _, s := range sm.Shards {
		// Every member is a bootstrap seed: shard-map fetch must survive any
		// single member (including a primary) being unreachable.
		seeds = append(seeds, s.Addrs...)
		for _, addr := range s.Addrs {
			host := addr[:strings.IndexByte(addr, ':')]
			srv := gns.NewServer(gns.NewStore(e.V), e.V)
			srv.SetObserver(e.Obs)
			l, err := n.Host(host).Listen(addr)
			if err != nil {
				t.Fatalf("listen %s: %v", addr, err)
			}
			if err := srv.EnableShard(gns.ShardConfig{
				Map: sm, ID: s.ID, Self: addr, Dialer: n.Host(host),
			}); err != nil {
				t.Fatalf("enable shard %s: %v", addr, err)
			}
			stops = append(stops, rpc.Start(e.V, "gns-serve-"+addr, l, srv.Serve))
		}
	}
	return seeds, rpc.StopAll(stops...)
}

// shardedGNSClient builds the consumer-side sharded client with the chaos
// retry policy and the lease cache on.
func shardedGNSClient(e *Env, seeds []string) *gns.Client {
	c := gns.NewShardedClient(e.Grid.Network().Host(AppHost), seeds, e.V)
	c.SetRetry(Policy())
	c.SetObserver(e.Obs)
	c.EnableCache()
	return c
}

// seedCluster copies every mapping the mechanism's Prepare installed in the
// embedded store into the sharded cluster, through the normal write path
// (leaseholder routing included).
func seedCluster(t *testing.T, e *Env, seeds []string) {
	t.Helper()
	admin := gns.NewShardedClient(e.Grid.Network().Host(AppHost), seeds, e.V)
	admin.SetRetry(Policy())
	defer admin.Close()
	for _, ent := range e.Store.List() {
		m := ent.Mapping
		m.Version = 0
		if _, err := admin.Set(ent.Key.Machine, ent.Key.Path, m); err != nil {
			t.Fatalf("seeding cluster with (%s,%s): %v", ent.Key.Machine, ent.Key.Path, err)
		}
	}
}

// gnsShardScenario is one fault shape against the name service itself. The
// hook runs inside V.Run after the cluster is seeded, before the workload.
type gnsShardScenario struct {
	name string
	// inject cuts links (and possibly waits for the cluster to react); what
	// it leaves running is added to bg, which the cell waits for.
	inject func(e *Env, bg *simclock.WaitGroup)
	// trace is an event the run's JSONL trace must contain.
	trace string
}

var gnsShardScenarios = []gnsShardScenario{
	{
		// Both primaries unreachable from the app (the shard-down shape a
		// client actually observes): every read walks to the replicas.
		name: "primaries-unreachable",
		inject: func(e *Env, bg *simclock.WaitGroup) {
			e.Grid.Network().Partition(AppHost, "gnsa")
			e.Grid.Network().Partition(AppHost, "gnsb")
		},
	},
	{
		// Shard 0's primary is cut off from everyone — app and its own
		// replica — long enough that the replica promotes itself. Resolves
		// must keep working through the new leaseholder.
		name: "primary-partition-failover",
		inject: func(e *Env, bg *simclock.WaitGroup) {
			e.Grid.Network().Partition("gnsa", "gnsar")
			e.Grid.Network().Partition(AppHost, "gnsa")
			e.V.Sleep(gns.DefaultLeaseTTL + 4*gns.DefaultHeartbeat)
		},
		trace: "gns.shard.failover",
	},
	{
		// A transient cut that heals inside the retry budget: no failover,
		// the client just rides it out on backoff.
		name: "primary-blip-heals",
		inject: func(e *Env, bg *simclock.WaitGroup) {
			e.Grid.Network().Partition(AppHost, "gnsa")
			e.Grid.Network().Partition(AppHost, "gnsb")
			bg.Add(1)
			e.V.Go("chaos-heal", func() {
				defer bg.Done()
				e.V.Sleep(1200 * time.Millisecond)
				e.Grid.Network().Heal(AppHost, "gnsa")
				e.Grid.Network().Heal(AppHost, "gnsb")
			})
		},
	},
}

// runShardedGNSCell runs one mechanism's workload with the consumer FM
// resolving through the sharded cluster under one fault scenario.
func runShardedGNSCell(t *testing.T, mech Mechanism, sc gnsShardScenario) ([]byte, string) {
	t.Helper()
	e := NewEnv()
	want := Payload(1, dataSize)
	mech.Prepare(e, want)
	p := Policy()
	var got []byte
	var rerr, perr error
	run(t, e, func() {
		stop, err := e.StartServices(AppHost, DataHost, AltHost)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		seeds, closeAll := startGNSCluster(t, e, gnsRing)
		defer closeAll()
		seedCluster(t, e, seeds)
		gc := shardedGNSClient(e, seeds)
		defer gc.Close()
		wg := simclock.NewWaitGroup(e.V)
		if sc.inject != nil {
			sc.inject(e, wg)
		}
		if mech.Producer {
			wg.Add(1)
			e.V.Go("chaos-producer", func() {
				defer wg.Done()
				perr = RunProducer(e, DataHost, p, want)
			})
		}
		var fm *core.Multiplexer
		fm, rerr = e.FMWith(AppHost, p, func(cfg *core.Config) { cfg.GNS = gc })
		if rerr == nil {
			var f core.File
			f, rerr = fm.Open(File)
			if rerr == nil {
				got, rerr = io.ReadAll(f)
				f.Close()
			}
		}
		wg.Wait()
	})
	if perr != nil {
		t.Fatalf("producer: %v", perr)
	}
	if rerr != nil {
		t.Fatalf("consumer: %v", rerr)
	}
	var trace bytes.Buffer
	if err := e.Obs.WriteJSONL(&trace); err != nil {
		t.Fatalf("writing trace: %v", err)
	}
	return got, trace.String()
}

// TestChaosGNSShardMatrix drives the network-path mechanisms through the
// sharded name service under member-down, partition-failover and heal
// scenarios: every cell must deliver output byte-identical to the payload.
func TestChaosGNSShardMatrix(t *testing.T) {
	want := Payload(1, dataSize)
	for _, mech := range Mechanisms {
		if mech.ID != 2 && mech.ID != 3 && mech.ID != 6 {
			continue
		}
		t.Run(fmt.Sprintf("mech%d-%s", mech.ID, mech.Name), func(t *testing.T) {
			// Healthy sharded baseline: the deployment change alone must be
			// invisible.
			base, _ := runShardedGNSCell(t, mech, gnsShardScenario{name: "healthy"})
			if !bytes.Equal(base, want) {
				t.Fatalf("healthy sharded run broken: got %d bytes, want %d", len(base), len(want))
			}
			for _, sc := range gnsShardScenarios {
				t.Run(sc.name, func(t *testing.T) {
					got, trace := runShardedGNSCell(t, mech, sc)
					if !bytes.Equal(got, want) {
						t.Fatalf("output under %s differs: got %d bytes, want %d", sc.name, len(got), len(want))
					}
					if sc.trace != "" && !strings.Contains(trace, sc.trace) {
						t.Errorf("trace has no %s event", sc.trace)
					}
				})
			}
		})
	}
}
