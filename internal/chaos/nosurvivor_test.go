package chaos

import (
	"strings"
	"testing"

	"griddles/internal/fault"
)

// The other half of the resilience contract: when no endpoint survives, the
// application must get a clean error within the retry policy's budget — not
// hang. The simulated clock enforces the no-hang half for free (it panics
// with a goroutine dump on deadlock); these tests pin the budget.

func TestRemoteReadAllEndpointsDeadFailsCleanly(t *testing.T) {
	e := NewEnv()
	want := Payload(1, dataSize)
	Mechanisms[2].Prepare(e, want) // mechanism 3: remote, single endpoint
	p := Policy()
	run(t, e, func() {
		stop, err := e.StartServices(AppHost, DataHost, AltHost)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		fm, err := e.FM(AppHost, p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fm.Open(File)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 4096)
		if _, err := f.Read(buf); err != nil {
			t.Fatalf("read before fault: %v", err)
		}
		// Silence both directions permanently. Dials still succeed (the
		// handshake carries no link traffic), so every attempt burns its full
		// deadline — the slowest possible clean failure.
		(&fault.Schedule{Clock: e.V, Net: e.Grid.Network(), Obs: e.Obs, Actions: []fault.Action{
			{Kind: fault.Blackhole, From: DataHost, To: AppHost},
			{Kind: fault.Blackhole, From: AppHost, To: DataHost},
		}}).Start().Wait()
		start := e.V.Now()
		for i := 0; i < 64; i++ {
			if _, err = f.Read(buf); err != nil {
				break
			}
		}
		if err == nil {
			t.Fatal("reads kept succeeding with the only endpoint dead")
		}
		budget := 2 * p.MaxElapsed()
		if el := e.V.Now().Sub(start); el > budget {
			t.Errorf("clean failure took %v of simulated time, budget %v", el, budget)
		}
	})
}

func TestReplicaReadAllReplicasDeadFailsCleanly(t *testing.T) {
	e := NewEnv()
	want := Payload(1, dataSize)
	Mechanisms[3].Prepare(e, want) // mechanism 4: replica-remote
	p := Policy()
	run(t, e, func() {
		stop, err := e.StartServices(AppHost, DataHost, AltHost)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		fm, err := e.FM(AppHost, p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fm.Open(File)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 4096)
		if _, err := f.Read(buf); err != nil {
			t.Fatalf("read before fault: %v", err)
		}
		// Cut the application off from every replica host.
		(&fault.Schedule{Clock: e.V, Net: e.Grid.Network(), Obs: e.Obs, Actions: []fault.Action{
			{Kind: fault.Partition, From: AppHost, To: DataHost},
			{Kind: fault.Partition, From: AppHost, To: AltHost},
			{Kind: fault.Reset, From: AppHost, To: DataHost},
		}}).Start().Wait()
		start := e.V.Now()
		var rerr error
		for i := 0; i < 64; i++ {
			if _, rerr = f.Read(buf); rerr != nil {
				break
			}
		}
		if rerr == nil {
			t.Fatal("reads kept succeeding with every replica dead")
		}
		if !strings.Contains(rerr.Error(), "all replicas failed") {
			t.Errorf("error = %v, want all-replicas-failed", rerr)
		}
		// One exhausted retry cycle per replica plus failover overhead.
		budget := 3 * p.MaxElapsed()
		if el := e.V.Now().Sub(start); el > budget {
			t.Errorf("clean failure took %v of simulated time, budget %v", el, budget)
		}
	})
}
