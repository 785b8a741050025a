// Package testbed simulates the paper's Table 1 grid: seven machines in
// four countries with calibrated compute rates, single-CPU fair-share
// scheduling, disk bandwidth, and WAN links between them.
//
// The calibration philosophy (DESIGN.md §5): compute rates come from the
// paper's own Table 3 measurements (seconds of C-CAM per machine), not from
// MHz; disk rates and multiprogramming penalties are tuned so the Table 4
// files/buffers/sequential crossovers land where the paper observed them;
// link latencies/bandwidths are 2004-era values cross-checked against the
// paper's Table 5 file-copy times.
package testbed

import (
	"fmt"
	"io/fs"
	"net"
	"sync"
	"time"

	"griddles/internal/simclock"
	"griddles/internal/simnet"
	"griddles/internal/vfs"
)

// MachineSpec describes one testbed machine. Descriptive fields mirror the
// paper's Table 1; the calibrated fields drive the simulation.
type MachineSpec struct {
	Name    string
	Address string
	CPU     string
	MHz     int
	MemMB   int
	OS      string
	Country string

	// SpeedFactor is the machine's compute rate relative to brecca (1.0):
	// one "work unit" is one second of brecca CPU.
	SpeedFactor float64
	// DiskMBps is the effective synchronous disk throughput.
	DiskMBps float64
	// MultiprogPenalty is the fractional slowdown each additional
	// concurrently *computing* task inflicts (cache/memory pressure and
	// context switching on 2004 hardware): with n tasks in Compute at once,
	// per-task rate = speed / (n * (1 + penalty*(n-1))). Blocked or polling
	// processes do not pay it; this is what separates the paper's
	// co-scheduled runs from the sequential ones on the slow machines.
	MultiprogPenalty float64
}

// Machine is a simulated host: a CPU, a disk, a private file system and a
// network identity.
type Machine struct {
	spec  MachineSpec
	clock simclock.Clock
	host  *simnet.Host
	memfs *vfs.MemFS
	fs    vfs.FS
	cpu   *cpu
	disk  *disk
}

// Spec reports the machine's specification.
func (m *Machine) Spec() MachineSpec { return m.spec }

// Name reports the machine name.
func (m *Machine) Name() string { return m.spec.Name }

// Clock reports the machine's clock.
func (m *Machine) Clock() simclock.Clock { return m.clock }

// FS is the machine's file system with disk timing applied to data transfer.
func (m *Machine) FS() vfs.FS { return m.fs }

// RawFS is the same namespace without disk timing (for test setup and
// inspection).
func (m *Machine) RawFS() *vfs.MemFS { return m.memfs }

// Host is the machine's network identity.
func (m *Machine) Host() *simnet.Host { return m.host }

// Dial implements the Dialer interface of every service client.
func (m *Machine) Dial(addr string) (net.Conn, error) { return m.host.Dial(addr) }

// Listen opens a listener on this machine ("name:port" or ":port").
func (m *Machine) Listen(addr string) (net.Listener, error) { return m.host.Listen(addr) }

// Attach registers a resident process (a workflow component) for
// introspection; the returned release function must be called when the
// process exits. Residency itself is free — only concurrent Compute calls
// pay the multiprogramming penalty.
func (m *Machine) Attach() (release func()) { return m.cpu.attach() }

// Residents reports the currently attached process count.
func (m *Machine) Residents() int { return m.cpu.residentCount() }

// Compute burns `units` of work (brecca-seconds) on the machine's CPU,
// fair-sharing it with other concurrent Compute calls.
func (m *Machine) Compute(units float64) { m.cpu.run(units) }

// cpu is a single processor shared fairly among active tasks, with a
// residency penalty. Work advances in quanta so arrivals and departures
// re-balance shares.
type cpu struct {
	clock simclock.Clock
	speed float64 // work units per second when alone
	mp    float64 // multiprogramming penalty per extra resident

	mu        sync.Mutex
	active    int // tasks inside run()
	residents int // attached processes
}

// quantum is the scheduling granularity in virtual time.
const quantum = 250 * time.Millisecond

func (c *cpu) attach() func() {
	c.mu.Lock()
	c.residents++
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.residents--
			c.mu.Unlock()
		})
	}
}

func (c *cpu) residentCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.residents
}

// rate reports this task's current work rate in units/sec.
func (c *cpu) rate() float64 {
	c.mu.Lock()
	n := c.active
	c.mu.Unlock()
	if n < 1 {
		n = 1
	}
	eff := 1.0
	if n > 1 {
		eff = 1 / (1 + c.mp*float64(n-1))
	}
	return c.speed * eff / float64(n)
}

func (c *cpu) run(units float64) {
	if units <= 0 {
		return
	}
	c.mu.Lock()
	c.active++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.active--
		c.mu.Unlock()
	}()
	remaining := units
	for remaining > 1e-9 {
		rate := c.rate()
		need := time.Duration(remaining / rate * float64(time.Second))
		dt := quantum
		if need < dt {
			dt = need
		}
		if dt <= 0 {
			return
		}
		c.clock.Sleep(dt)
		remaining -= rate * dt.Seconds()
	}
}

// disk serializes IO requests at a fixed throughput, so concurrent
// processes contend for it exactly as they did on the paper's hardware.
type disk struct {
	clock simclock.Clock
	mu    *simclock.Mutex
	bps   float64
}

func (d *disk) io(n int) {
	if n <= 0 || d.bps <= 0 {
		return
	}
	d.mu.Lock()
	d.clock.Sleep(time.Duration(float64(n) / d.bps * float64(time.Second)))
	d.mu.Unlock()
}

// diskFS decorates a vfs.FS with disk timing on data transfer. Metadata
// operations are free (they were never the bottleneck in the paper's runs).
type diskFS struct {
	inner vfs.FS
	disk  *disk
}

// OpenFile implements vfs.FS.
func (d *diskFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := d.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &diskFile{File: f, disk: d.disk}, nil
}

// Stat implements vfs.FS.
func (d *diskFS) Stat(name string) (fs.FileInfo, error) { return d.inner.Stat(name) }

// Remove implements vfs.FS.
func (d *diskFS) Remove(name string) error { return d.inner.Remove(name) }

// List implements vfs.FS.
func (d *diskFS) List(prefix string) ([]string, error) { return d.inner.List(prefix) }

type diskFile struct {
	vfs.File
	disk *disk
}

func (f *diskFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.disk.io(n)
	return n, err
}

func (f *diskFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.disk.io(n)
	return n, err
}

func (f *diskFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.disk.io(n)
	return n, err
}

func (f *diskFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.disk.io(n)
	return n, err
}

// Grid is a set of machines on a shared shaped network.
type Grid struct {
	clock    simclock.Clock
	network  *simnet.Network
	machines map[string]*Machine
}

// NewGrid returns an empty grid on clock.
func NewGrid(clock simclock.Clock) *Grid {
	return &Grid{
		clock:    clock,
		network:  simnet.New(clock),
		machines: make(map[string]*Machine),
	}
}

// Network exposes the underlying fabric (for link configuration).
func (g *Grid) Network() *simnet.Network { return g.network }

// Clock reports the grid's clock.
func (g *Grid) Clock() simclock.Clock { return g.clock }

// AddMachine creates a machine from spec.
func (g *Grid) AddMachine(spec MachineSpec) *Machine {
	if spec.SpeedFactor <= 0 {
		spec.SpeedFactor = 1
	}
	memfs := vfs.NewMemFS()
	memfs.NowFunc = g.clock.Now
	d := &disk{clock: g.clock, mu: simclock.NewMutex(g.clock), bps: spec.DiskMBps * 1e6}
	m := &Machine{
		spec:  spec,
		clock: g.clock,
		host:  g.network.Host(spec.Name),
		memfs: memfs,
		disk:  d,
		cpu:   &cpu{clock: g.clock, speed: spec.SpeedFactor, mp: spec.MultiprogPenalty},
	}
	m.fs = &diskFS{inner: memfs, disk: d}
	g.machines[spec.Name] = m
	return m
}

// Machine returns the named machine, panicking on unknown names (a
// misconfigured experiment should fail loudly).
func (g *Grid) Machine(name string) *Machine {
	m, ok := g.machines[name]
	if !ok {
		panic(fmt.Sprintf("testbed: unknown machine %q", name))
	}
	return m
}

// Machines reports all machines keyed by name.
func (g *Grid) Machines() map[string]*Machine { return g.machines }
