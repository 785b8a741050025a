package core

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"griddles/internal/gns"
	"griddles/internal/nws"
	"griddles/internal/replica"
	"griddles/internal/retry"
	"griddles/internal/vfs"
)

// fmPolicy is a fast-recovering policy for the failover tests.
func fmPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts: 2,
		BaseDelay:   10 * time.Millisecond,
		// Must comfortably exceed the testbed's WAN round trips (the
		// vpac27<->bouscat route alone is several hundred ms).
		AttemptTimeout: 2 * time.Second,
	}
}

// boundReplica reaches the raw mechanism-4 handle under an open File.
func boundReplica(f File) *replicaFile { return f.(*handle).Closer.(*replicaFile) }

// replicatedDataset registers `dataset` on bouscat and brecca with identical
// content and an NWS preference for bouscat, mapped for machine on path.
func replicatedDataset(e *env, machine, path string, size int) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(17)).Read(data)
	vfs.WriteFile(e.grid.Machine("bouscat").RawFS(), "/rep/ds", data)
	vfs.WriteFile(e.grid.Machine("brecca").RawFS(), "/rep/ds", data)
	e.cat.Register("dataset", replica.Location{Host: "bouscat", Addr: "bouscat" + ftpPort, Path: "/rep/ds"})
	e.cat.Register("dataset", replica.Location{Host: "brecca", Addr: "brecca" + ftpPort, Path: "/rep/ds"})
	now := time.Unix(0, 0)
	e.nws.Record("bouscat", machine, nws.MetricLatency, now, 0.001)
	e.nws.Record("brecca", machine, nws.MetricLatency, now, 0.5)
	e.store.Set(machine, path, gns.Mapping{Mode: gns.ModeReplicaRemote, LogicalName: "dataset"})
	return data
}

func TestReplicaFailoverMidRead(t *testing.T) {
	e := newEnv()
	data := replicatedDataset(e, "vpac27", "ds", 200_000)
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "vpac27", func(c *Config) { c.Retry = fmPolicy() })
		r, err := fm.Open("ds")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		rf := boundReplica(r)
		if rf.Location().Host != "bouscat" {
			t.Fatalf("initial binding = %s", rf.Location().Host)
		}
		buf := make([]byte, 4096)
		var got []byte
		for i := 0; i < 10; i++ {
			k, err := r.Read(buf)
			got = append(got, buf[:k]...)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
		}
		// The bound replica's host drops off the grid: cut the route and
		// reset the live connection. The read must continue from brecca at
		// the same offset with no byte lost or repeated.
		e.grid.Network().Partition("vpac27", "bouscat")
		e.grid.Network().InjectReset("vpac27", "bouscat")
		rest, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("read after replica death: %v", err)
		}
		got = append(got, rest...)
		if !bytes.Equal(got, data) {
			t.Fatalf("failover stream corrupted: got %d bytes want %d", len(got), len(data))
		}
		if rf.Location().Host != "brecca" {
			t.Errorf("binding after failover = %s, want brecca", rf.Location().Host)
		}
		if fm.Stats().Failovers() == 0 {
			t.Error("no failover recorded in stats")
		}
		var found bool
		for _, ev := range fm.Obs().Events() {
			if ev.Type == "fm.failover" && ev.Attr("to") == "brecca" {
				found = true
			}
		}
		if !found {
			t.Error("no fm.failover event in trace")
		}
	})
}

func TestAllReplicasFailCleanly(t *testing.T) {
	e := newEnv()
	replicatedDataset(e, "vpac27", "ds", 200_000)
	e.v.Run(func() {
		e.startServices(t)
		p := fmPolicy()
		fm := e.fm(t, "vpac27", func(c *Config) { c.Retry = p })
		r, err := fm.Open("ds")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		buf := make([]byte, 4096)
		if _, err := r.Read(buf); err != nil {
			t.Fatalf("read: %v", err)
		}
		for _, h := range []string{"bouscat", "brecca"} {
			e.grid.Network().Partition("vpac27", h)
			e.grid.Network().InjectReset("vpac27", h)
		}
		start := e.v.Now()
		_, rerr := io.ReadAll(r)
		if rerr == nil {
			t.Fatal("read with every replica dead succeeded")
		}
		if !strings.Contains(rerr.Error(), "all replicas failed") {
			t.Errorf("error = %v, want all-replicas-failed", rerr)
		}
		// The failure must arrive within the policy budget per replica (two
		// hosts, each one exhausted retry cycle), not hang.
		budget := 3 * p.MaxElapsed()
		if el := e.v.Now().Sub(start); el > budget {
			t.Errorf("clean failure took %v, budget %v", el, budget)
		}
	})
}

func TestReplicaOpenFailsOverToRunnerUp(t *testing.T) {
	e := newEnv()
	replicatedDataset(e, "vpac27", "ds", 50_000)
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "vpac27", func(c *Config) { c.Retry = fmPolicy() })
		// The preferred host is unreachable before the open.
		e.grid.Network().Partition("vpac27", "bouscat")
		r, err := fm.Open("ds")
		if err != nil {
			t.Fatalf("open with best replica dead: %v", err)
		}
		defer r.Close()
		if h := boundReplica(r).Location().Host; h != "brecca" {
			t.Errorf("open bound to %s, want brecca", h)
		}
	})
}

func TestReplicaCopyFailsOverToRunnerUp(t *testing.T) {
	e := newEnv()
	data := replicatedDataset(e, "vpac27", "ds", 50_000)
	e.store.Set("vpac27", "ds", gns.Mapping{Mode: gns.ModeReplicaCopy, LogicalName: "dataset", LocalPath: "/tmp/ds"})
	e.v.Run(func() {
		e.startServices(t)
		fm := e.fm(t, "vpac27", func(c *Config) { c.Retry = fmPolicy() })
		e.grid.Network().Partition("vpac27", "bouscat")
		r, err := fm.Open("ds")
		if err != nil {
			t.Fatalf("replica-copy with best replica dead: %v", err)
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("staged copy corrupted: err=%v got %d bytes want %d", err, len(got), len(data))
		}
		if fm.Stats().Failovers() == 0 {
			t.Error("no failover recorded for replica-copy stage-in")
		}
	})
}
