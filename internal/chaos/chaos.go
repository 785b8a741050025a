// Package chaos is the fault-injection test harness for the whole GriddLeS
// stack: a miniature grid (the paper's Table 1 testbed) with every service
// running, a shared observer, and workload drivers for each of the seven FM
// IO mechanisms. The chaos test matrix runs {mechanism} x {fault scenario}
// pairs on it and asserts that a run under faults delivers byte-identical
// output to the no-fault run — or, when no endpoint survives, that it fails
// cleanly within the retry policy's budget instead of hanging.
//
// Everything here is deterministic: the simulated clock drives the fault
// schedules (package fault), so a given scenario trips on the same byte at
// the same simulated instant on every run.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/nws"
	"griddles/internal/objstore"
	"griddles/internal/obs"
	"griddles/internal/replica"
	"griddles/internal/retry"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/testbed"
	"griddles/internal/vfs"
	"griddles/internal/workflow"
)

// Env is a miniature grid with shared GNS, replica catalogue, NWS and
// observer — one chaos run's world.
type Env struct {
	V     *simclock.Virtual
	Grid  *testbed.Grid
	Store *gns.Store
	Cat   *replica.Catalog
	NWS   *nws.Service
	Obs   *obs.Observer
	// Objs holds each machine's object-store table, created on first use.
	// Prepare hooks run before V.Run, so they seed objects here directly;
	// StartServices later serves the same table on
	// workflow.ObjectStoreServicePort.
	Objs map[string]*objstore.Store
	// Transport is the Grid Buffer transport every FM built here speaks;
	// a mechanism's Prepare may set it.
	Transport core.Transport

	regs []*gridbuffer.Registry // one per machine StartServices started
}

// NewEnv builds a fresh world on the paper's Table 1 testbed.
func NewEnv() *Env {
	v := simclock.NewVirtualDefault()
	return &Env{
		V:     v,
		Grid:  testbed.DefaultGrid(v),
		Store: gns.NewStore(v),
		Cat:   replica.NewCatalog(),
		NWS:   nws.NewService(),
		Obs:   obs.New(v),
		Objs:  make(map[string]*objstore.Store),
	}
}

// ObjStore reports host's object table, creating it on first use.
func (e *Env) ObjStore(host string) *objstore.Store {
	s, ok := e.Objs[host]
	if !ok {
		s = objstore.NewStore()
		e.Objs[host] = s
	}
	return s
}

// StartServices brings up each named machine's services on workflow's
// well-known ports (workflow.StartMachineServices), serving the machine's
// object table from Objs and a Grid Buffer registry whose metrics go to Obs.
// Must run inside V.Run; call stop before the root returns.
func (e *Env) StartServices(hosts ...string) (stop func(), err error) {
	var stops []func()
	for _, name := range hosts {
		m := e.Grid.Machine(name)
		reg := gridbuffer.NewRegistry(e.V, m.FS())
		reg.SetObserver(e.Obs)
		s, err := workflow.StartMachineServices(e.V, m, e.ObjStore(name), reg)
		if err != nil {
			rpc.StopAll(stops...)()
			return nil, err
		}
		e.regs = append(e.regs, reg)
		stops = append(stops, s)
	}
	return rpc.StopAll(stops...), nil
}

// FM builds a Multiplexer on the named machine wired into the shared
// observer, with the given resilience policy.
func (e *Env) FM(machine string, p retry.Policy) (*core.Multiplexer, error) {
	return e.FMWith(machine, p, nil)
}

// FMWith is FM with a last-minute Config mutation, for chaos cases that need
// a data-path knob (prefetch, stripe streams) turned on.
func (e *Env) FMWith(machine string, p retry.Policy, mut func(*core.Config)) (*core.Multiplexer, error) {
	m := e.Grid.Machine(machine)
	cfg := core.Config{
		Machine:  machine,
		Clock:    e.V,
		FS:       m.FS(),
		Dialer:   m,
		GNS:      e.Store,
		Replicas: replica.CatalogLookuper{Catalog: e.Cat},
		NWS:      e.NWS,
		Retry:    p,
		Obs:      e.Obs,
		Buffer:   core.Buffer{Transport: e.Transport},
	}
	if mut != nil {
		mut(&cfg)
	}
	return core.New(cfg)
}

// Policy is the chaos-matrix resilience policy: enough attempts, spaced
// widely enough, to ride out every recoverable scenario in the matrix
// (one-shot resets, 1 s blackholes, 1.2 s partitions) on the testbed's WAN
// round trips, while still failing within ~15 s of simulated time when no
// endpoint survives.
func Policy() retry.Policy {
	return retry.Policy{
		MaxAttempts:    6,
		BaseDelay:      100 * time.Millisecond,
		MaxDelay:       time.Second,
		AttemptTimeout: 2 * time.Second,
	}
}

// The matrix topology: the consumer application runs on AppHost; bulk data
// lives on DataHost (monash<->vpac: 2 ms, 460 KB/s — WAN-shaped but quick to
// simulate); replicated datasets have a second copy on AltHost.
const (
	AppHost  = "dione"
	DataHost = "brecca"
	AltHost  = "koume00"
)

// Payload returns the deterministic workload content for a seed.
func Payload(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// Mechanism is one of the FM's seven IO bindings, with everything the harness
// needs to drive it: Prepare seeds data and GNS state before the run, and
// the workload is "open File on AppHost and read it to EOF" (mechanism 6
// additionally runs the producer, see RunProducer).
type Mechanism struct {
	ID   int
	Name string
	// Prepare installs mappings, catalogue entries and source data.
	Prepare func(e *Env, want []byte)
	// Producer reports whether the workload needs a concurrent producer on
	// DataHost writing `want` through its own FM (mechanism 6).
	Producer bool
}

// File is the path every mechanism maps for the consumer.
const File = "CHAOS.DAT"

// Mechanisms is the full matrix axis: one entry per paper IO mechanism, and
// mechanism 6 once more over the SOAP transport.
var Mechanisms = []Mechanism{
	{
		ID: 1, Name: "local",
		Prepare: func(e *Env, want []byte) {
			vfsWrite(e, AppHost, "/local/f", want)
			e.Store.Set(AppHost, File, gns.Mapping{Mode: gns.ModeLocal, LocalPath: "/local/f"})
		},
	},
	{
		ID: 2, Name: "copy",
		Prepare: func(e *Env, want []byte) {
			vfsWrite(e, DataHost, "/data/f", want)
			e.Store.Set(AppHost, File, gns.Mapping{
				Mode: gns.ModeCopy, RemoteHost: DataHost + workflow.FileServicePort, RemotePath: "/data/f", LocalPath: "/stage/f",
			})
		},
	},
	{
		ID: 3, Name: "remote",
		Prepare: func(e *Env, want []byte) {
			vfsWrite(e, DataHost, "/data/f", want)
			e.Store.Set(AppHost, File, gns.Mapping{
				Mode: gns.ModeRemote, RemoteHost: DataHost + workflow.FileServicePort, RemotePath: "/data/f",
			})
		},
	},
	{
		ID: 4, Name: "replica-remote",
		Prepare: func(e *Env, want []byte) {
			prepareReplicas(e, want)
			e.Store.Set(AppHost, File, gns.Mapping{Mode: gns.ModeReplicaRemote, LogicalName: "chaos-ds"})
		},
	},
	{
		ID: 5, Name: "replica-copy",
		Prepare: func(e *Env, want []byte) {
			prepareReplicas(e, want)
			e.Store.Set(AppHost, File, gns.Mapping{
				Mode: gns.ModeReplicaCopy, LogicalName: "chaos-ds", LocalPath: "/stage/f",
			})
		},
	},
	{
		ID: 6, Name: "buffer", Producer: true,
		Prepare: func(e *Env, want []byte) {
			m := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: AppHost + workflow.BufferServicePort, BufferKey: "chaos-k"}
			e.Store.Set(AppHost, File, m)
			e.Store.Set(DataHost, File, m)
		},
	},
	{
		// Mechanism 6 over the paper's SOAP endpoint, producer and consumer
		// both speaking SOAP. The buffer sits at the writer's end, so every
		// get the consumer makes crosses the faulted link.
		ID: 6, Name: "buffer-soap", Producer: true,
		Prepare: func(e *Env, want []byte) {
			e.Transport = core.TransportSOAP
			m := gns.Mapping{Mode: gns.ModeBuffer, BufferHost: DataHost + workflow.SOAPBufferServicePort, BufferKey: "chaos-k"}
			e.Store.Set(AppHost, File, m)
			e.Store.Set(DataHost, File, m)
		},
	},
	{
		// The object lives on DataHost's store, so every ranged GET crosses
		// the faulted link exactly like the other network mechanisms.
		ID: 7, Name: "objstore",
		Prepare: func(e *Env, want []byte) {
			e.ObjStore(DataHost).PutBytes("chaos/f", want)
			e.Store.Set(AppHost, File, gns.Mapping{
				Mode: gns.ModeObject, RemoteHost: DataHost + workflow.ObjectStoreServicePort, RemotePath: "chaos/f",
			})
		},
	},
}

func vfsWrite(e *Env, host, path string, data []byte) {
	if err := vfs.WriteFile(e.Grid.Machine(host).RawFS(), path, data); err != nil {
		panic(err)
	}
}

// prepareReplicas registers identical copies on DataHost and AltHost with an
// NWS preference for DataHost.
func prepareReplicas(e *Env, want []byte) {
	vfsWrite(e, DataHost, "/rep/f", want)
	vfsWrite(e, AltHost, "/rep/f", want)
	e.Cat.Register("chaos-ds", replica.Location{Host: DataHost, Addr: DataHost + workflow.FileServicePort, Path: "/rep/f"})
	e.Cat.Register("chaos-ds", replica.Location{Host: AltHost, Addr: AltHost + workflow.FileServicePort, Path: "/rep/f"})
	now := time.Unix(0, 0)
	e.NWS.Record(DataHost, AppHost, nws.MetricLatency, now, 0.002)
	e.NWS.Record(AltHost, AppHost, nws.MetricLatency, now, 0.2)
}

// RunProducer writes want through a fresh FM on host and closes the file.
func RunProducer(e *Env, host string, p retry.Policy, want []byte) error {
	fm, err := e.FM(host, p)
	if err != nil {
		return err
	}
	w, err := fm.Create(File)
	if err != nil {
		return fmt.Errorf("chaos: producer create: %w", err)
	}
	for off := 0; off < len(want); off += 7919 {
		end := off + 7919
		if end > len(want) {
			end = len(want)
		}
		if _, err := w.Write(want[off:end]); err != nil {
			w.Close()
			return fmt.Errorf("chaos: producer write: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("chaos: producer close: %w", err)
	}
	return nil
}

// RunConsumer opens File on host and reads it to EOF.
func RunConsumer(e *Env, host string, p retry.Policy) ([]byte, error) {
	fm, err := e.FM(host, p)
	if err != nil {
		return nil, err
	}
	f, err := fm.Open(File)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
