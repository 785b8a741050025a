package gns

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"griddles/internal/obs"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/simnet"
)

func TestParseRingAndValidate(t *testing.T) {
	sm, err := ParseRing("0=gns0:5000,gns0r:5000; 1=gns1:5000")
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Shards) != 2 || sm.VNodes != DefaultVNodes || sm.Epoch != 1 {
		t.Fatalf("parsed map = %+v", sm)
	}
	if s, _ := sm.Shard(0); len(s.Addrs) != 2 || s.Addrs[0] != "gns0:5000" {
		t.Errorf("shard 0 = %+v, want primary gns0:5000 + one replica", s)
	}
	for _, bad := range []string{"", "x=a:1", "0=", "0=a:1;0=b:1"} {
		if _, err := ParseRing(bad); err == nil {
			t.Errorf("ParseRing(%q) accepted, want error", bad)
		}
	}
}

func TestShardMapWireRoundTrip(t *testing.T) {
	sm := ShardMap{Epoch: 7, VNodes: 8, Shards: []ShardInfo{
		{ID: 0, Addrs: []string{"a:1", "b:1"}},
		{ID: 3, Addrs: []string{"c:1"}},
	}}
	got, err := DecodeShardMap(EncodeShardMap(sm))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 7 || got.VNodes != 8 || len(got.Shards) != 2 ||
		got.Shards[0].Addrs[1] != "b:1" || got.Shards[1].ID != 3 {
		t.Errorf("round trip = %+v, want %+v", got, sm)
	}
	if _, err := DecodeShardMap(append(EncodeShardMap(sm), 0xFF)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestRingPlacementStableBalancedAndMachineBlind(t *testing.T) {
	sm, _ := ParseRing("0=a:1;1=b:1;2=c:1;3=d:1")
	r := NewRing(sm)
	counts := make(map[uint32]int)
	for i := 0; i < 4000; i++ {
		path := fmt.Sprintf("/data/file%04d.dat", i)
		sid := r.ShardFor("jagan", path)
		// The wildcard rule demands machine-blind placement: ("*", path)
		// and every ("m", path) must land on one shard.
		if got := r.ShardFor("*", path); got != sid {
			t.Fatalf("placement depends on machine: %d vs %d for %s", sid, got, path)
		}
		if got := NewRing(sm).ShardFor("brecca", path); got != sid {
			t.Fatalf("placement not deterministic across rings for %s", path)
		}
		counts[sid]++
	}
	for sid, c := range counts {
		if c < 4000/4/2 || c > 4000/4*2 {
			t.Errorf("shard %d owns %d of 4000 keys — ring badly unbalanced", sid, c)
		}
	}
}

// shardMember is one running server of a test cluster.
type shardMember struct {
	addr  string
	host  string
	srv   *Server
	store *Store
	stop  func()
}

// startCluster boots one server per address in spec, all sharded over the
// same map. Hosts are the address's host part. Callers must be inside
// v.Run and should defer cl.close().
type testCluster struct {
	sm      ShardMap
	members map[string]*shardMember
}

func startCluster(t *testing.T, v *simclock.Virtual, n *simnet.Network, spec string, o *obs.Observer) *testCluster {
	t.Helper()
	sm, err := ParseRing(spec)
	if err != nil {
		t.Fatal(err)
	}
	cl := &testCluster{sm: sm, members: make(map[string]*shardMember)}
	for _, s := range sm.Shards {
		for _, addr := range s.Addrs {
			host := addr[:strings.IndexByte(addr, ':')]
			store := NewStore(v)
			srv := NewServer(store, v)
			srv.SetObserver(o)
			l, err := n.Host(host).Listen(addr)
			if err != nil {
				t.Fatalf("listen %s: %v", addr, err)
			}
			if err := srv.EnableShard(ShardConfig{
				Map: sm, ID: s.ID, Self: addr, Dialer: n.Host(host),
			}); err != nil {
				t.Fatalf("enable shard %s: %v", addr, err)
			}
			stop := rpc.Start(v, "serve-"+addr, l, srv.Serve)
			cl.members[addr] = &shardMember{addr: addr, host: host, srv: srv, store: store, stop: stop}
		}
	}
	return cl
}

// close stops every member: closing its listener ends its Serve, and with
// it the member's replication loop.
func (cl *testCluster) close() {
	for _, m := range cl.members {
		m.stop()
	}
}

func shardedClient(n *simnet.Network, v *simclock.Virtual, seeds ...string) *Client {
	c := NewShardedClient(n.Host("app"), seeds, v)
	p := retry.Default(v)
	p.BaseDelay = 100 * time.Millisecond
	p.MaxDelay = time.Second
	p.AttemptTimeout = 2 * time.Second
	c.SetRetry(p)
	return c
}

func TestShardedClientRoutesAcrossShards(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000;1=gns1:5000;2=gns2:5000;3=gns3:5000", nil)
		defer cl.close()
		c := shardedClient(n, v, "gns0:5000")
		defer c.Close()

		// Write and read back enough keys that every shard certainly owns
		// some; each must round-trip regardless of which shard owns it.
		for i := 0; i < 40; i++ {
			path := fmt.Sprintf("/d/F%03d.DAT", i)
			want := Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000", RemotePath: path}
			if _, err := c.Set("jagan", path, want); err != nil {
				t.Fatalf("set %s: %v", path, err)
			}
			m, err := c.Resolve("jagan", path)
			if err != nil {
				t.Fatalf("resolve %s: %v", path, err)
			}
			if m.RemotePath != path || m.Mode != ModeRemote {
				t.Errorf("resolve %s = %+v", path, m)
			}
		}
		// The keys really are spread: no single member store holds them all.
		ring := NewRing(cl.sm)
		perShard := make(map[uint32]int)
		for i := 0; i < 40; i++ {
			perShard[ring.ShardFor("jagan", fmt.Sprintf("/d/F%03d.DAT", i))]++
		}
		if len(perShard) < 2 {
			t.Fatalf("test keys all landed on one shard: %v", perShard)
		}
		for sid, wantCount := range perShard {
			info, _ := cl.sm.Shard(sid)
			if got := len(cl.members[info.Addrs[0]].store.List()); got != wantCount {
				t.Errorf("shard %d primary holds %d entries, want %d", sid, got, wantCount)
			}
		}
	})
}

func TestShardServerRejectsMisroutedKeys(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000;1=gns1:5000", nil)
		defer cl.close()
		ring := NewRing(cl.sm)
		// Find a key owned by shard 1 and ask shard 0 for it directly.
		var path string
		for i := 0; ; i++ {
			path = fmt.Sprintf("/d/M%03d.DAT", i)
			if ring.ShardFor("jagan", path) == 1 {
				break
			}
		}
		direct := NewClient(n.Host("app"), "gns0:5000", v)
		defer direct.Close()
		if _, err := direct.Resolve("jagan", path); err == nil {
			t.Error("misrouted resolve answered, want wrong-shard rejection")
		}
		if _, err := direct.Set("jagan", path, Mapping{Mode: ModeLocal}); err == nil {
			t.Error("misrouted set answered, want wrong-shard rejection")
		}
	})
}

func TestShardReplicationReachesReplicaAndRedirectsWrites(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000,gns0r:5000", nil)
		defer cl.close()
		c := shardedClient(n, v, "gns0:5000")
		defer c.Close()
		want := Mapping{Mode: ModeCopy, RemoteHost: "dione:6000", RemotePath: "/x/A.DAT"}
		if _, err := c.Set("jagan", "A.DAT", want); err != nil {
			t.Fatal(err)
		}
		// The write was applied on the primary and pushed to the replica.
		if m, ok := cl.members["gns0r:5000"].store.Lookup("jagan", "A.DAT"); !ok || m.RemoteHost != want.RemoteHost {
			t.Errorf("replica store = %+v (found=%v), want the replicated write", m, ok)
		}
		// A write sent straight at the replica is redirected, not applied
		// locally: the replica answers msgRedirect naming the primary, and a
		// client following it still lands the write on the leaseholder.
		direct := NewClient(n.Host("app"), "gns0r:5000", v)
		defer direct.Close()
		if _, err := direct.Set("jagan", "A.DAT", want); err == nil {
			t.Error("replica accepted a direct write, want redirect error")
		}
		rc := shardedClient(n, v, "gns0r:5000") // seeded at the replica
		defer rc.Close()
		if _, err := rc.Set("jagan", "B.DAT", want); err != nil {
			t.Fatalf("redirected write failed: %v", err)
		}
		if _, ok := cl.members["gns0:5000"].store.Lookup("jagan", "B.DAT"); !ok {
			t.Error("redirected write did not reach the primary")
		}
	})
}

func TestShardFailoverPromotesReplicaAndInvalidatesLeases(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		o := obs.New(v)
		cl := startCluster(t, v, n, "0=gns0:5000,gns0r:5000", o)
		defer cl.close()
		c := shardedClient(n, v, "gns0:5000", "gns0r:5000")
		defer c.Close()
		co := obs.New(v)
		c.SetObserver(co)
		c.EnableCache()
		if _, err := c.Set("jagan", "F.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Resolve("jagan", "F.DAT"); err != nil {
			t.Fatal(err)
		}

		// Cut the primary off from everyone. Its heartbeats stop; past the
		// lease-quiesce floor the replica promotes itself with term 2.
		n.Partition("gns0", "gns0r")
		n.Partition("app", "gns0")
		v.Sleep(DefaultLeaseTTL + 4*DefaultHeartbeat)
		if !cl.members["gns0r:5000"].srv.Leader() {
			t.Fatal("replica did not promote after the primary went silent")
		}

		// Writes keep working through the promoted replica...
		if _, err := c.Set("jagan", "F.DAT", Mapping{Mode: ModeCopy, RemoteHost: "dione:6000"}); err != nil {
			t.Fatalf("post-failover write: %v", err)
		}
		// ...and the next leased resolve carries term 2, voiding the cached
		// term-1 lease so the client sees the new mapping immediately.
		m, err := c.ResolveFresh("jagan", "F.DAT")
		if err != nil {
			t.Fatalf("post-failover resolve: %v", err)
		}
		if m.Mode != ModeCopy || m.RemoteHost != "dione:6000" {
			t.Errorf("post-failover resolve = %+v, want the new mapping", m)
		}
		snap := o.Snapshot().Counters
		if snap["gns.shard.promote.total"] == 0 {
			t.Error("no gns.shard.promote.total recorded")
		}
	})
}

func TestShardedSetIfAbsentFirstWriterWins(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000,gns0r:5000", nil)
		defer cl.close()
		// Two independent coordinators, one seeded at the primary and one at
		// the replica: both SetIfAbsent claims route to the leaseholder, so
		// exactly one wins even though they entered through different members.
		a := shardedClient(n, v, "gns0:5000")
		defer a.Close()
		b := shardedClient(n, v, "gns0r:5000")
		defer b.Close()
		ma := Mapping{Mode: ModeLocal, LocalPath: "winner-a"}
		mb := Mapping{Mode: ModeLocal, LocalPath: "winner-b"}
		_, wonA, err := a.SetIfAbsent("wf", "commit/stage1", ma)
		if err != nil {
			t.Fatal(err)
		}
		curB, wonB, err := b.SetIfAbsent("wf", "commit/stage1", mb)
		if err != nil {
			t.Fatal(err)
		}
		if !wonA || wonB {
			t.Errorf("first-writer-wins violated: wonA=%v wonB=%v", wonA, wonB)
		}
		if curB.LocalPath != "winner-a" {
			t.Errorf("loser sees %+v, want the winner's mapping", curB)
		}
	})
}

func TestShardedWatchWakesOnReplicatedWrite(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000,gns0r:5000;1=gns1:5000", nil)
		defer cl.close()
		c := shardedClient(n, v, "gns0:5000")
		defer c.Close()
		w := shardedClient(n, v, "gns0:5000")
		defer w.Close()
		done := make(chan Mapping, 1)
		v.Go("watcher", func() {
			m, changed, err := w.Watch("jagan", "W.DAT", 0, 10_000)
			if err != nil || !changed {
				done <- Mapping{}
				return
			}
			done <- m
		})
		v.Sleep(50 * time.Millisecond)
		if _, err := c.Set("jagan", "W.DAT", Mapping{Mode: ModeBuffer, BufferHost: "koume00:7000", BufferKey: "W"}); err != nil {
			t.Fatal(err)
		}
		m := <-done
		if m.Mode != ModeBuffer || m.BufferKey != "W" {
			t.Errorf("watch woke with %+v, want the new mapping", m)
		}
	})
}

func TestSingleShardMatchesUnshardedBehaviour(t *testing.T) {
	// One shard, one member: the sharded deployment must behave exactly like
	// the historical single server, including the ModeLocal default for
	// unmapped keys and wildcard fallback.
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000", nil)
		defer cl.close()
		c := shardedClient(n, v, "gns0:5000")
		defer c.Close()
		m, err := c.Resolve("jagan", "UNMAPPED.DAT")
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode != ModeLocal || m.LocalPath != "UNMAPPED.DAT" {
			t.Errorf("unmapped resolve = %+v, want local passthrough", m)
		}
		cl.members["gns0:5000"].store.Set("*", "WILD.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"})
		m, err = c.Resolve("anymachine", "WILD.DAT")
		if err != nil {
			t.Fatal(err)
		}
		if m.Mode != ModeRemote {
			t.Errorf("wildcard resolve = %+v, want the wildcard mapping", m)
		}
	})
}

func TestWildcardFallbackUnderSharding(t *testing.T) {
	// Machine-blind placement puts ("*", path) and ("m", path) on the same
	// shard, so the store-level wildcard fallback works sharded too.
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000;1=gns1:5000;2=gns2:5000;3=gns3:5000", nil)
		defer cl.close()
		c := shardedClient(n, v, "gns2:5000")
		defer c.Close()
		for i := 0; i < 12; i++ {
			path := fmt.Sprintf("/wild/W%02d.DAT", i)
			if _, err := c.Set("*", path, Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000", RemotePath: path}); err != nil {
				t.Fatal(err)
			}
			m, err := c.Resolve("some-machine", path)
			if err != nil {
				t.Fatal(err)
			}
			if m.Mode != ModeRemote || m.RemotePath != path {
				t.Errorf("wildcard resolve %s = %+v", path, m)
			}
		}
	})
}

func TestShardSnapshotCatchUpAfterShortPartition(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		o := obs.New(v)
		cl := startCluster(t, v, n, "0=gns0:5000,gns0r:5000", o)
		defer cl.close()
		c := shardedClient(n, v, "gns0:5000")
		defer c.Close()

		// Cut the replica off, but for less than the election timeout: it
		// misses appends yet never promotes.
		n.Partition("gns0", "gns0r")
		for i := 0; i < 3; i++ {
			path := fmt.Sprintf("/p/P%d.DAT", i)
			if _, err := c.Set("jagan", path, Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000", RemotePath: path}); err != nil {
				t.Fatal(err)
			}
		}
		v.Sleep(2 * DefaultHeartbeat)
		n.Heal("gns0", "gns0r")
		// The next heartbeat's version check fails on the lagging replica
		// and the leader falls back to a full snapshot.
		v.Sleep(3 * DefaultHeartbeat)

		prim, repl := cl.members["gns0:5000"].store, cl.members["gns0r:5000"].store
		if pv, rv := prim.Version(), repl.Version(); pv != rv {
			t.Fatalf("replica did not converge: primary v%d, replica v%d", pv, rv)
		}
		if got, want := len(repl.List()), len(prim.List()); got != want {
			t.Errorf("replica holds %d entries, primary %d", got, want)
		}
		if cl.members["gns0r:5000"].srv.Leader() {
			t.Error("replica promoted during a sub-timeout partition")
		}
		snap := o.Snapshot().Counters
		if snap["gns.shard.repl.fail.total"] == 0 {
			t.Error("no replication failures counted during the partition")
		}
		if snap["gns.shard.snapshot.total"] == 0 {
			t.Error("no snapshot catch-up counted after heal")
		}
	})
}

func TestShardOldLeaderStepsDownAfterHeal(t *testing.T) {
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		o := obs.New(v)
		cl := startCluster(t, v, n, "0=gns0:5000,gns0r:5000", o)
		defer cl.close()
		c := shardedClient(n, v, "gns0:5000", "gns0r:5000")
		defer c.Close()
		if _, err := c.Set("jagan", "S.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"}); err != nil {
			t.Fatal(err)
		}

		// Isolate the primary from both the replica and the app; the replica
		// promotes and takes the write load.
		n.Partition("gns0", "gns0r")
		n.Partition("app", "gns0")
		v.Sleep(DefaultLeaseTTL + 4*DefaultHeartbeat)
		if !cl.members["gns0r:5000"].srv.Leader() {
			t.Fatal("replica did not promote")
		}
		if _, err := c.Set("jagan", "S.DAT", Mapping{Mode: ModeCopy, RemoteHost: "dione:6000"}); err != nil {
			t.Fatalf("write during primary outage: %v", err)
		}

		// Heal: the deposed primary observes term 2, steps down, and is
		// snapshotted back into sync by the new leader.
		n.Heal("gns0", "gns0r")
		n.Heal("app", "gns0")
		v.Sleep(4 * DefaultHeartbeat)
		if cl.members["gns0:5000"].srv.Leader() {
			t.Error("old primary still believes it leads after heal")
		}
		prim, repl := cl.members["gns0:5000"].store, cl.members["gns0r:5000"].store
		if m, ok := prim.Lookup("jagan", "S.DAT"); !ok || m.Mode != ModeCopy {
			t.Errorf("old primary state = %+v (%v), want the term-2 write", m, ok)
		}
		if pv, rv := prim.Version(), repl.Version(); pv != rv {
			t.Errorf("stores diverged after heal: %d vs %d", pv, rv)
		}
		snap := o.Snapshot().Counters
		if snap["gns.shard.stepdown.total"] == 0 {
			t.Error("no stepdown counted")
		}
	})
}

func TestShardIsolatedLeaderFencesWritesAndLeases(t *testing.T) {
	// REVIEW fix: a primary partitioned from every replica must fence
	// itself — refuse writes and stop granting cacheable leases — within
	// one LeaseTTL, instead of acking writes that snapshot catch-up will
	// erase on heal while a promoted replica takes the real write load.
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		o := obs.New(v)
		cl := startCluster(t, v, n, "0=gns0:5000,gns0r:5000", o)
		defer cl.close()
		c := shardedClient(n, v, "gns0:5000", "gns0r:5000")
		defer c.Close()
		if _, err := c.Set("jagan", "F.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"}); err != nil {
			t.Fatal(err)
		}

		// Cut only the replication link; the app still reaches the old
		// primary, which is exactly the split-brain shape.
		v.Sleep(2 * DefaultHeartbeat)
		n.Partition("gns0", "gns0r")
		v.Sleep(DefaultLeaseTTL + 4*DefaultHeartbeat)
		if !cl.members["gns0r:5000"].srv.Leader() {
			t.Fatal("replica did not promote")
		}

		// The isolated primary refuses a direct write even though it is
		// reachable and still believes it leads.
		direct := NewClient(n.Host("app"), "gns0:5000", v)
		defer direct.Close()
		if _, err := direct.Set("jagan", "F.DAT", Mapping{Mode: ModeLocal}); err == nil {
			t.Error("fenced primary accepted a write")
		}
		// Its leases are void at grant time: zero TTL, nothing cacheable.
		if _, l, err := direct.resolveLeaseRemote("jagan", "F.DAT", 0); err != nil {
			t.Fatalf("fenced read: %v", err)
		} else if l.TTL != 0 {
			t.Errorf("fenced primary granted TTL %v, want 0", l.TTL)
		}

		// The sharded client's write walks past the fence to the promoted
		// replica and survives the heal.
		want := Mapping{Mode: ModeCopy, RemoteHost: "dione:6000"}
		if _, err := c.Set("jagan", "G.DAT", want); err != nil {
			t.Fatalf("write during fence: %v", err)
		}
		if _, ok := cl.members["gns0r:5000"].store.Lookup("jagan", "G.DAT"); !ok {
			t.Error("fenced-era write did not land on the promoted replica")
		}
		n.Heal("gns0", "gns0r")
		v.Sleep(4 * DefaultHeartbeat)
		if cl.members["gns0:5000"].srv.Leader() {
			t.Error("old primary still leads after heal")
		}
		if m, ok := cl.members["gns0:5000"].store.Lookup("jagan", "G.DAT"); !ok || m.RemoteHost != want.RemoteHost {
			t.Errorf("old primary after heal = %+v (%v), want the fenced-era write preserved", m, ok)
		}
		snap := o.Snapshot().Counters
		if snap["gns.shard.fence.total"] == 0 {
			t.Error("no gns.shard.fence.total recorded")
		}
	})
}

func TestShardSimultaneousPromotionsConvergeToOneLeader(t *testing.T) {
	// REVIEW fix: two replicas promoting from the same base term take
	// rank-spread terms (term += rank+1), so the collision resolves by
	// plain term fencing the moment they can talk, instead of leaving two
	// equal-term leaders flip-flopping forever.
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		cl := startCluster(t, v, n, "0=gns0:5000,gns0r:5000,gns0rr:5000", nil)
		defer cl.close()
		c := shardedClient(n, v, "gns0r:5000")
		defer c.Close()

		// Fully separate all three members: both replicas' election windows
		// expire without ever seeing each other's first heartbeat.
		v.Sleep(2 * DefaultHeartbeat)
		n.Partition("gns0", "gns0r")
		n.Partition("gns0", "gns0rr")
		n.Partition("gns0r", "gns0rr")
		v.Sleep(DefaultLeaseTTL + 5*DefaultHeartbeat)
		r1, r2 := cl.members["gns0r:5000"].srv, cl.members["gns0rr:5000"].srv
		if !r1.Leader() || !r2.Leader() {
			t.Fatalf("expected both replicas promoted mid-partition: r1=%v r2=%v", r1.Leader(), r2.Leader())
		}

		// Heal the replica pair: the higher rank took the higher term, so
		// exactly one survives as leader.
		n.Heal("gns0r", "gns0rr")
		v.Sleep(4 * DefaultHeartbeat)
		if lead1, lead2 := r1.Leader(), r2.Leader(); lead1 == lead2 {
			t.Fatalf("leadership did not converge: r1=%v r2=%v", lead1, lead2)
		}
		if _, err := c.Set("jagan", "T.DAT", Mapping{Mode: ModeLocal, LocalPath: "t"}); err != nil {
			t.Fatalf("write after convergence: %v", err)
		}
		s1, s2 := cl.members["gns0r:5000"].store, cl.members["gns0rr:5000"].store
		v.Sleep(2 * DefaultHeartbeat)
		if v1, v2 := s1.Version(), s2.Version(); v1 != v2 {
			t.Errorf("replica stores diverged after convergence: %d vs %d", v1, v2)
		}

		// Heal the deposed original primary too: it must fold in.
		n.Heal("gns0", "gns0r")
		n.Heal("gns0", "gns0rr")
		v.Sleep(4 * DefaultHeartbeat)
		if cl.members["gns0:5000"].srv.Leader() {
			t.Error("original primary re-asserted leadership after heal")
		}
	})
}

func TestShardEqualTermCollisionResolvedByRank(t *testing.T) {
	// Equal terms can still collide across different base terms; the
	// tie-break is deterministic: the lower-rank leader wins, replicas
	// refuse the other one's appends naming the winner, and the loser
	// steps down on the refusal ack.
	v := simclock.NewVirtualDefault()
	sm, err := ParseRing("0=l0:1,l1:1,l2:1")
	if err != nil {
		t.Fatal(err)
	}
	ranks := map[string]int{"l0:1": 0, "l1:1": 1, "l2:1": 2}
	mk := func(self string, term uint64, leader string) *shardRun {
		srv := NewServer(NewStore(v), v)
		r := &shardRun{
			srv:   srv,
			cfg:   ShardConfig{Map: sm, ID: 0, Self: self, LeaseTTL: DefaultLeaseTTL, Heartbeat: DefaultHeartbeat},
			rank:  ranks[self],
			ranks: ranks,
			term:  term, leader: leader,
			ackAt: map[string]time.Time{},
		}
		srv.shard = r
		return r
	}
	v.Run(func() {
		// A follower of the rank-1 leader refuses the rank-2 claimant and
		// names its leader in the ack...
		f := mk("l0:1", 5, "l1:1")
		if ack := f.onAppend(replRecord{Term: 5, Leader: "l2:1"}); ack.OK || ack.Leader != "l1:1" {
			t.Errorf("follower answered %+v to the losing claimant, want refusal naming l1:1", ack)
		}
		// ...but adopts an equal-term claimant that outranks its leader.
		f2 := mk("l0:1", 5, "l2:1")
		if ack := f2.onAppend(replRecord{Term: 5, Leader: "l1:1"}); !ack.OK || ack.Leader != "l1:1" {
			t.Errorf("follower answered %+v to the winning claimant, want adoption", ack)
		}
		// The losing leader steps down on the refusal ack; the winner
		// ignores the loser's claim.
		l2 := mk("l2:1", 5, "l2:1")
		if !l2.deposedBy(replAck{Term: 5, Leader: "l1:1"}, 5) {
			t.Error("rank-2 leader did not yield to the rank-1 leader at equal term")
		}
		if lead, _, _ := l2.srv.writeState(); lead {
			t.Error("deposed equal-term leader still accepts writes")
		}
		l1 := mk("l1:1", 5, "l1:1")
		if l1.deposedBy(replAck{Term: 5, Leader: "l2:1"}, 5) {
			t.Error("rank-1 leader yielded to the rank-2 leader at equal term")
		}
	})
}

func TestShardedClientRefreshesStaleMapOnMisroute(t *testing.T) {
	// REVIEW fix: a client whose cached shard map predates a ring change
	// gets msgWrongShard, drops the map, refetches from the seeds, and the
	// retried call routes correctly — a misroute is recovery, not a
	// permanent failure.
	v := simclock.NewVirtualDefault()
	n := simnet.New(v)
	v.Run(func() {
		o := obs.New(v)
		cl := startCluster(t, v, n, "0=gns0:5000;1=gns1:5000", o)
		defer cl.close()
		c := shardedClient(n, v, "gns0:5000")
		defer c.Close()
		co := obs.New(v)
		c.SetObserver(co)

		stale, err := ParseRing("0=gns0:5000")
		if err != nil {
			t.Fatal(err)
		}
		forceStale := func() {
			c.shardMu.Lock()
			c.smap = stale
			c.ring = NewRing(stale)
			c.lead = map[uint32]string{0: "gns0:5000"}
			c.shardMu.Unlock()
		}
		ring := NewRing(cl.sm)
		var path string
		for i := 0; ; i++ {
			path = fmt.Sprintf("/m/R%03d.DAT", i)
			if ring.ShardFor("jagan", path) == 1 {
				break
			}
		}

		forceStale()
		want := Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000", RemotePath: path}
		if _, err := c.Set("jagan", path, want); err != nil {
			t.Fatalf("set through a stale map: %v", err)
		}
		if _, ok := cl.members["gns1:5000"].store.Lookup("jagan", path); !ok {
			t.Error("write did not land on the owning shard after the refresh")
		}
		forceStale()
		m, err := c.Resolve("jagan", path)
		if err != nil {
			t.Fatalf("resolve through a stale map: %v", err)
		}
		if m.RemoteHost != want.RemoteHost {
			t.Errorf("resolve after refresh = %+v, want %+v", m, want)
		}
		if co.Snapshot().Counters["gns.shard.remap.total"] < 2 {
			t.Error("client did not count its map refreshes")
		}
		if o.Snapshot().Counters["gns.shard.misroute.total"] == 0 {
			t.Error("servers did not count the misroutes")
		}
	})
}
