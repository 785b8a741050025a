package workflow

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
)

// startShardedGNS boots one gns.Server per address of spec on the grid's
// network and returns the seed addresses. Callers must be inside v.Run.
func startShardedGNS(t *testing.T, v *simclock.Virtual, n *simnet.Network, spec string) (seeds []string, closeAll func()) {
	t.Helper()
	sm, err := gns.ParseRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	var stops []func()
	for _, s := range sm.Shards {
		seeds = append(seeds, s.Addrs[0])
		for _, addr := range s.Addrs {
			host := addr[:strings.IndexByte(addr, ':')]
			srv := gns.NewServer(gns.NewStore(v), v)
			l, err := n.Host(host).Listen(addr)
			if err != nil {
				t.Fatalf("listen %s: %v", addr, err)
			}
			if err := srv.EnableShard(gns.ShardConfig{
				Map: sm, ID: s.ID, Self: addr, Dialer: n.Host(host),
			}); err != nil {
				t.Fatalf("enable shard %s: %v", addr, err)
			}
			stops = append(stops, rpc.Start(v, "gns-serve-"+addr, l, srv.Serve))
		}
	}
	return seeds, rpc.StopAll(stops...)
}

// TestSpeculationCommitsThroughShardedDirectory runs the straggler
// speculation workflow with the coordinator's GNS behind a sharded,
// replicated directory instead of the embedded store: every FM resolve and
// every coordinator write — including the first-writer-wins SetIfAbsent
// commit that decides the speculation race — crosses the wire to the owning
// shard's leaseholder. The workflow output must stay byte-identical.
func TestSpeculationCommitsThroughShardedDirectory(t *testing.T) {
	const seed, payload = 3, 64 << 10
	v := simclock.NewVirtualDefault()
	grid := testbed.DefaultGrid(v)
	o := obs.New(v)
	runner := &Runner{Grid: grid, Obs: o, Speculate: true, SpecInterval: 7 * time.Second}
	var dir *gns.DirectoryClient
	v.Run(func() {
		stop, err := StartServices(v, grid)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		seeds, closeAll := startShardedGNS(t, v, grid.Network(), "0=gnsa:5000,gnsar:5000;1=gnsb:5000,gnsbr:5000")
		defer closeAll()
		c := gns.NewShardedClient(grid.Network().Host("coord"), seeds, v)
		p := retry.Default(v)
		p.BaseDelay = 100 * time.Millisecond
		p.MaxDelay = time.Second
		p.AttemptTimeout = 2 * time.Second
		c.SetRetry(p)
		defer c.Close()
		dir = gns.NewDirectoryClient(c)
		runner.GNS = dir

		rep, err := runner.Run(stragglerSpec(seed, payload), CouplingSequential)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if rep.Total <= 0 {
			t.Error("empty report")
		}
		v.Sleep(5 * time.Minute) // drain the losing primary's discard
	})

	c := o.Snapshot().Counters
	if c["wf.spec.launch.total"] != 1 || c["wf.spec.win.total"] != 1 {
		t.Errorf("launch/win = %d/%d, want 1/1",
			c["wf.spec.launch.total"], c["wf.spec.win.total"])
	}
	if err := dir.Err(); err != nil {
		t.Errorf("directory degraded during the run: %v", err)
	}
	got, err := vfs.ReadFile(grid.Machine("dione").RawFS(), "FINAL.DAT")
	if err != nil {
		t.Fatalf("FINAL.DAT: %v", err)
	}
	if !bytes.Equal(got, wantFinal(seed, payload)) {
		t.Error("FINAL.DAT differs from the embedded-store ground truth")
	}
}
