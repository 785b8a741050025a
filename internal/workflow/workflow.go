// Package workflow turns a declarative description of a grid workflow — a
// set of legacy components and the files they exchange — into a running,
// timed execution on the testbed.
//
// The key design point mirrors the paper: a workflow's *coupling* (local
// files, staged copies between machines, or direct Grid Buffer streams) is
// not part of the components. The Runner writes the appropriate GNS entries
// for the chosen coupling and the unmodified component code does the rest.
// It also applies the matching scheduling constraint the paper's conclusion
// calls out: file-copied workflows run their stages sequentially (DAGman
// style), buffer-coupled workflows co-schedule everything.
package workflow

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"griddles/internal/core"
	"griddles/internal/gns"
	"griddles/internal/gridbuffer"
	"griddles/internal/gridftp"
	"griddles/internal/objstore"
	"griddles/internal/obs"
	"griddles/internal/rpc"
	"griddles/internal/simclock"
	"griddles/internal/soap"
	"griddles/internal/testbed"
)

// Well-known service ports on every testbed machine.
const (
	FileServicePort        = ":6000"
	BufferServicePort      = ":7000"
	SOAPBufferServicePort  = ":7001"
	ObjectStoreServicePort = ":7100"
)

// Ctx is what a component body receives: a File Multiplexer plus the
// machine it runs on. Component code must do all IO through FM and all
// computation through Compute.
type Ctx struct {
	// Name is the component's name.
	Name string
	// FM is the component's File Multiplexer.
	FM *core.Multiplexer
	// Machine is the testbed machine the component is scheduled on.
	Machine *testbed.Machine
	// Clock is the simulation or wall clock.
	Clock simclock.Clock

	mark func(name string)
}

// Compute burns CPU work (brecca-seconds) on the component's machine.
func (c *Ctx) Compute(units float64) { c.Machine.Compute(units) }

// Mark records a named timestamp ("component/name") in the run report —
// e.g. when a staged input copy finished.
func (c *Ctx) Mark(name string) {
	if c.mark != nil {
		c.mark(name)
	}
}

// Component is one program in the pipeline.
type Component struct {
	// Name identifies the component in reports and DOT output.
	Name string
	// Machine names the testbed machine the component runs on.
	Machine string
	// Inputs and Outputs are the file names the component opens; they
	// define the dataflow edges.
	Inputs  []string
	Outputs []string
	// WorkHint is the component's approximate compute cost in work units,
	// used by AutoAssign; 0 means unknown (treated as 1).
	WorkHint float64
	// Run is the component body.
	Run func(*Ctx) error
}

// Spec is a whole workflow.
type Spec struct {
	Name       string
	Components []Component
}

// Coupling selects how intermediate files move between components.
type Coupling int

const (
	// CouplingSequential runs components in topological order with local
	// files, staging copies between machines (the paper's experiment-1 /
	// Table-3 / Table-5 "Files" configuration).
	CouplingSequential Coupling = iota
	// CouplingFiles starts all components concurrently; readers poll for
	// writer completion markers (the paper's Table-4 "With Files" runs).
	CouplingFiles
	// CouplingBuffers couples writers to readers with Grid Buffers and
	// co-schedules everything (the paper's "GridFiles"/"Buffers" runs).
	CouplingBuffers
	// CouplingObjects couples components through the object-store service
	// (mechanism 7): each intermediate file becomes a whole object committed
	// atomically at the producer's close, readers poll for its visibility
	// (no completion markers needed) and serve themselves with ranged GETs.
	// Components are co-scheduled like buffer runs.
	CouplingObjects
)

// String implements fmt.Stringer.
func (c Coupling) String() string {
	switch c {
	case CouplingSequential:
		return "sequential-files"
	case CouplingFiles:
		return "concurrent-files"
	case CouplingBuffers:
		return "buffers"
	case CouplingObjects:
		return "objects"
	default:
		return fmt.Sprintf("coupling(%d)", int(c))
	}
}

// producers maps each file to the index of the component producing it.
func (s *Spec) producers() (map[string]int, error) {
	p := make(map[string]int)
	for i, c := range s.Components {
		for _, out := range c.Outputs {
			if prev, dup := p[out]; dup {
				return nil, fmt.Errorf("workflow: file %q produced by both %s and %s",
					out, s.Components[prev].Name, c.Name)
			}
			p[out] = i
		}
	}
	return p, nil
}

// consumers maps each file to the indices of components reading it.
func (s *Spec) consumers() map[string][]int {
	c := make(map[string][]int)
	for i, comp := range s.Components {
		for _, in := range comp.Inputs {
			c[in] = append(c[in], i)
		}
	}
	return c
}

// TopoOrder returns component indices in dependency order.
func (s *Spec) TopoOrder() ([]int, error) {
	prod, err := s.producers()
	if err != nil {
		return nil, err
	}
	n := len(s.Components)
	adj := make([][]int, n)
	indeg := make([]int, n)
	for i, c := range s.Components {
		for _, in := range c.Inputs {
			if p, ok := prod[in]; ok && p != i {
				adj[p] = append(adj[p], i)
				indeg[i]++
			}
		}
	}
	queue := []int{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	var order []int
	for len(queue) > 0 {
		sort.Ints(queue)
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, j := range adj[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("workflow: %s has a dependency cycle", s.Name)
	}
	return order, nil
}

// DOT renders the workflow's dataflow graph in Graphviz format (used to
// regenerate the paper's Figure 1 and Figure 5 diagrams).
func (s *Spec) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", s.Name)
	fmt.Fprintf(&b, "  node [shape=box, style=rounded];\n")
	prod, _ := s.producers()
	cons := s.consumers()
	files := make(map[string]bool)
	for _, c := range s.Components {
		label := c.Name
		if c.Machine != "" {
			label += "\\n(" + c.Machine + ")"
		}
		fmt.Fprintf(&b, "  %q [label=%q];\n", c.Name, label)
		for _, f := range append(append([]string{}, c.Inputs...), c.Outputs...) {
			files[f] = true
		}
	}
	var names []string
	for f := range files {
		names = append(names, f)
	}
	sort.Strings(names)
	for _, f := range names {
		fmt.Fprintf(&b, "  %q [shape=note, fontsize=10];\n", "file:"+f)
		if p, ok := prod[f]; ok {
			fmt.Fprintf(&b, "  %q -> %q;\n", s.Components[p].Name, "file:"+f)
		}
		for _, ci := range cons[f] {
			fmt.Fprintf(&b, "  %q -> %q;\n", "file:"+f, s.Components[ci].Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Timing is one component's observed schedule, as offsets from run start.
type Timing struct {
	Name    string
	Machine string
	Start   time.Duration
	Finish  time.Duration
}

// Report is the result of one workflow run; Finish offsets are directly
// comparable to the paper's cumulative tables.
type Report struct {
	Workflow string
	Coupling Coupling
	Total    time.Duration
	Timings  []Timing
	// Marks are component-recorded timestamps keyed "component/mark".
	Marks map[string]time.Duration
}

// Mark reports a recorded timestamp.
func (r *Report) Mark(key string) (time.Duration, bool) {
	d, ok := r.Marks[key]
	return d, ok
}

// Timing reports the named component's entry.
func (r *Report) Timing(name string) (Timing, bool) {
	for _, t := range r.Timings {
		if t.Name == name {
			return t, true
		}
	}
	return Timing{}, false
}

// String renders the report as an aligned table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workflow %s [%s] total %s\n", r.Workflow, r.Coupling, fmtDur(r.Total))
	for _, t := range r.Timings {
		fmt.Fprintf(&b, "  %-14s %-9s start %9s finish %9s\n", t.Name, t.Machine, fmtDur(t.Start), fmtDur(t.Finish))
	}
	return b.String()
}

// fmtDur formats like the paper's tables (hh:mm:ss).
func fmtDur(d time.Duration) string {
	d = d.Round(time.Second)
	h := d / time.Hour
	m := (d % time.Hour) / time.Minute
	s := (d % time.Minute) / time.Second
	return fmt.Sprintf("%02d:%02d:%02d", h, m, s)
}

// FormatDuration exposes the table format used in reports.
func FormatDuration(d time.Duration) string { return fmtDur(d) }

// StartServices brings up every machine's services (StartMachineServices),
// each machine with an empty object store and Grid Buffer registry, and
// returns the stop for all of them. Call inside the clock's Run, and call
// stop before the root returns.
func StartServices(clock simclock.Clock, grid *testbed.Grid) (stop func(), err error) {
	var stops []func()
	for _, m := range grid.Machines() {
		s, err := StartMachineServices(clock, m, objstore.NewStore(), gridbuffer.NewRegistry(clock, m.FS()))
		if err != nil {
			rpc.StopAll(stops...)()
			return nil, err
		}
		stops = append(stops, s)
	}
	return rpc.StopAll(stops...), nil
}

// StartMachineServices brings up m's file service, reg as its Grid Buffer
// service on the binary and SOAP ports (one server behind both), and objs
// as its object store, on the well-known ports. Call inside the clock's Run.
// stop stops the four in turn (rpc.Start); the binary Grid Buffer port's
// stop drops every buffer in reg before the SOAP port's, whose handlers may
// wait on one. On an error, what had started is stopped already.
func StartMachineServices(clock simclock.Clock, m *testbed.Machine, objs *objstore.Store, reg *gridbuffer.Registry) (stop func(), err error) {
	var stops []func()
	buf := gridbuffer.NewServer(reg, clock)
	for _, s := range []struct {
		port  string
		serve func(net.Listener)
	}{
		{FileServicePort, gridftp.NewServer(m.FS(), clock).Serve},
		{BufferServicePort, buf.Serve},
		{SOAPBufferServicePort, func(l net.Listener) { soap.Serve(l, clock, buf.ServeConn) }},
		{ObjectStoreServicePort, objstore.NewServer(objs, clock).Serve},
	} {
		l, err := m.Listen(s.port)
		if err != nil {
			rpc.StopAll(stops...)()
			return nil, fmt.Errorf("workflow: %s%s: %w", m.Name(), s.port, err)
		}
		stops = append(stops, rpc.Start(clock, m.Name()+s.port, l, s.serve))
	}
	return rpc.StopAll(stops...), nil
}

// Runner executes workflows on a grid.
type Runner struct {
	Grid *testbed.Grid
	// GNS is the name service the coordinator programs: an in-process
	// *Store private to this workflow, or a *DirectoryClient over a shared —
	// possibly sharded — gnsd cluster, whose writes (including the
	// SetIfAbsent speculation commit) route to each shard's leaseholder.
	GNS gns.Directory

	// FM is the template every stage's File Multiplexer is built from, by
	// value: all of core.Config's tuning reaches a workflow through it. The
	// runner fills Machine, Clock, FS, Dialer, GNS, Obs and Hooks per stage
	// attempt and Run refuses a template that sets any of them. The zero
	// template is core's defaults; core.Paper2004() is the paper's set.
	FM core.Config

	// PollWork is the CPU time in seconds each WaitClose poll burns on the
	// polling machine (default 0.004). It is charged as constant *time*
	// rather than constant work: the poll path (stat + name-service check)
	// cost roughly the same milliseconds on every 2004 box.
	PollWork float64
	// BlockSize overrides the Grid Buffer block size for all coupled files
	// (0 keeps the paper's 4096-byte default).
	BlockSize int
	// BufferAt overrides Grid Buffer placement per file; the default is the
	// first consumer's machine (the paper's reader-end placement).
	BufferAt map[string]string
	// CacheFiles enables the buffer cache file per file name; files listed
	// here support reader seek/re-read (the DARLAM pattern).
	CacheFiles map[string]bool
	// MaxPerMachine bounds how many CouplingSequential stages may run
	// concurrently on one machine under the DAG scheduler. 0 means 1 — the
	// paper's one-job-per-box regime, under which a pure chain runs one
	// stage at a time in topological order, as Serial does.
	MaxPerMachine int
	// EagerCopy starts each staging copy toward a remote consumer as soon
	// as the producer closes the file, overlapping transfers with upstream
	// compute; the consumer's open adopts the eager copy. Off by default
	// (the paper charges copies inside the consumer's slot).
	EagerCopy bool
	// Serial runs CouplingSequential strictly one stage at a time in
	// topological order, ignoring MaxPerMachine and EagerCopy: the reference
	// executor tests and A/B benchmarks compare the DAG scheduler against.
	Serial bool
	// Journal, if set, appends every coordinator transition to a durable
	// log so a crashed run can be resumed (Resume). Only the sequential-
	// files DAG scheduler journals.
	Journal *Journal
	// Kill is the chaos harness's coordinator crash switch: when its named
	// point fires, the coordinator stops dispatching and journaling,
	// in-flight stages drain, and Run returns ErrCoordinatorKilled.
	Kill *KillSwitch
	// Speculate enables stage-level speculative re-execution: a running
	// stage that exceeds a percentile-based straggler threshold is
	// re-launched on an idle machine; the first attempt to finish commits
	// its outputs through a first-writer-wins GNS claim and the loser's
	// partial outputs are discarded. Requires deterministic stage bodies.
	Speculate bool
	// SpecMinSamples is how many stages must complete before the
	// straggler threshold is trusted (default 3).
	SpecMinSamples int
	// SpecInterval paces the speculation monitor's scans (default 5s of
	// virtual time).
	SpecInterval time.Duration
	// Obs, if set, is shared by every component's File Multiplexer and
	// receives per-stage "wf.stage" events (wall time and IO volume per
	// component) plus the GNS store's metrics. nil keeps each FM on its own
	// private observer.
	Obs *obs.Observer
}

// Configure writes the GNS entries that implement the requested coupling
// for spec. It is exposed separately from Run so examples can show the
// "reconfigure by editing the GNS only" property.
func (r *Runner) Configure(spec *Spec, coupling Coupling) error {
	prod, err := spec.producers()
	if err != nil {
		return err
	}
	cons := spec.consumers()
	for file, pi := range prod {
		producer := spec.Components[pi]
		consumers := cons[file]
		switch coupling {
		case CouplingSequential, CouplingFiles:
			wait := coupling == CouplingFiles
			r.GNS.Set(producer.Machine, file, gns.Mapping{Mode: gns.ModeLocal, WaitClose: wait})
			for _, ci := range consumers {
				consumer := spec.Components[ci]
				if consumer.Machine == producer.Machine {
					r.GNS.Set(consumer.Machine, file, gns.Mapping{Mode: gns.ModeLocal, WaitClose: wait})
				} else {
					r.GNS.Set(consumer.Machine, file, gns.Mapping{
						Mode:       gns.ModeCopy,
						RemoteHost: producer.Machine + FileServicePort,
						RemotePath: file,
						WaitClose:  wait,
					})
				}
			}
		case CouplingBuffers:
			if len(consumers) == 0 {
				// Terminal outputs stay plain local files.
				r.GNS.Set(producer.Machine, file, gns.Mapping{Mode: gns.ModeLocal})
				continue
			}
			bufferMachine := spec.Components[consumers[0]].Machine
			if m, ok := r.BufferAt[file]; ok {
				bufferMachine = m
			}
			bufferPort := BufferServicePort
			if r.FM.Buffer.Transport == core.TransportSOAP {
				bufferPort = SOAPBufferServicePort
			}
			mapping := gns.Mapping{
				Mode:         gns.ModeBuffer,
				BufferHost:   bufferMachine + bufferPort,
				BufferKey:    spec.Name + "/" + file,
				CacheEnabled: r.CacheFiles[file],
				Readers:      len(consumers),
				BlockSize:    r.BlockSize,
			}
			r.GNS.Set(producer.Machine, file, mapping)
			for _, ci := range consumers {
				r.GNS.Set(spec.Components[ci].Machine, file, mapping)
			}
		case CouplingObjects:
			if len(consumers) == 0 {
				// Terminal outputs stay plain local files.
				r.GNS.Set(producer.Machine, file, gns.Mapping{Mode: gns.ModeLocal})
				continue
			}
			// Reader-end placement, as for buffers: the object lands on the
			// first consumer's store so its ranged GETs stay machine-local.
			objMachine := spec.Components[consumers[0]].Machine
			mapping := gns.Mapping{
				Mode:       gns.ModeObject,
				RemoteHost: objMachine + ObjectStoreServicePort,
				RemotePath: spec.Name + "/" + file,
				WaitClose:  true,
			}
			r.GNS.Set(producer.Machine, file, mapping)
			for _, ci := range consumers {
				r.GNS.Set(spec.Components[ci].Machine, file, mapping)
			}
		default:
			return fmt.Errorf("workflow: unknown coupling %d", coupling)
		}
	}
	return nil
}

// Run configures the GNS for the coupling, executes the workflow and
// returns per-component timings. Services must already be running
// (StartServices) and the caller must be inside the clock's Run.
func (r *Runner) Run(spec *Spec, coupling Coupling) (*Report, error) {
	return r.run(spec, coupling, nil)
}

// run is the shared body behind Run and Resume; img is the replayed journal
// image when resuming, nil for a fresh run.
func (r *Runner) run(spec *Spec, coupling Coupling, img *RunImage) (*Report, error) {
	durable := coupling == CouplingSequential && !r.Serial
	if (r.Journal != nil || r.Speculate || img != nil) && !durable {
		return nil, fmt.Errorf("workflow: journaling, speculation and resume require the sequential-files DAG scheduler (got %s, serial=%v)", coupling, r.Serial)
	}
	if err := r.checkTemplate(); err != nil {
		return nil, err
	}
	if err := r.Configure(spec, coupling); err != nil {
		return nil, err
	}
	if r.Obs != nil {
		r.GNS.SetObserver(r.Obs)
	}
	clock := r.Grid.Clock()
	if r.Journal != nil {
		r.Journal.kill = r.Kill
		if r.Journal.clock == nil {
			r.Journal.clock = clock
		}
		r.Journal.SetObserver(r.Obs)
	}
	if img != nil {
		// Configure re-wrote the default coupling entries; now undo what
		// the crashed session's speculation wins and commit claims left
		// behind, and re-point consumers of speculated-done stages.
		r.cleanupResume(spec, img)
	}
	if r.Journal != nil {
		// Each coordinator session appends its own header; a resumed file
		// reads as a sequence of sessions over one run.
		r.Journal.Header(spec.Name, SpecHash(spec, coupling), len(spec.Components), coupling)
	}
	start := clock.Now()
	report := &Report{
		Workflow: spec.Name, Coupling: coupling,
		Timings: make([]Timing, len(spec.Components)),
		Marks:   make(map[string]time.Duration),
	}
	var markMu sync.Mutex

	var eager *eagerTracker
	if r.EagerCopy && coupling == CouplingSequential && !r.Serial {
		eager = newEagerTracker(r, spec)
	}

	// exec runs one attempt of stage i on att.machine and returns its
	// timing. The DAG scheduler may run two attempts of a straggler stage
	// concurrently; att carries which one this is and its lost-race
	// interrupt.
	exec := func(i int, att *attempt) (Timing, error) {
		comp := spec.Components[i]
		machine := r.Grid.Machine(att.machine)
		release := machine.Attach()
		defer release()
		cfg := r.FM
		cfg.Machine, cfg.Clock, cfg.FS, cfg.Dialer = att.machine, clock, machine.FS(), machine
		cfg.GNS, cfg.Obs = r.GNS, r.Obs
		cfg.Hooks = core.Hooks{
			PollCost:  func() { machine.Compute(r.pollWork() * machine.Spec().SpeedFactor) },
			Interrupt: att.interrupt,
		}
		if eager != nil {
			cfg.Hooks.Prestage = eager
			cfg.Hooks.CloseNotify = func(path string) { eager.produced(att.machine, path) }
		}
		fm, err := core.New(cfg)
		if err != nil {
			return Timing{}, err
		}
		defer fm.Close()
		t := Timing{Name: comp.Name, Machine: att.machine, Start: clock.Now().Sub(start)}
		ctx := &Ctx{Name: comp.Name, FM: fm, Machine: machine, Clock: clock,
			mark: func(name string) {
				markMu.Lock()
				report.Marks[comp.Name+"/"+name] = clock.Now().Sub(start)
				markMu.Unlock()
			}}
		// Per-stage IO deltas: with a shared Observer, same-machine FMs
		// aggregate into one counter, so subtract the pre-run values.
		st := fm.Stats()
		readBefore, writeBefore, pollsBefore := st.BytesRead(), st.BytesWritten(), st.Polls()
		if err := comp.Run(ctx); err != nil {
			return t, fmt.Errorf("workflow: component %s: %w", comp.Name, err)
		}
		t.Finish = clock.Now().Sub(start)
		if r.Obs != nil {
			wall := t.Finish - t.Start
			r.Obs.Histogram("wf.stage.wall_ms").ObserveDuration(wall)
			r.Obs.Emit("wf.stage", att.machine,
				obs.KV("workflow", spec.Name),
				obs.KV("component", comp.Name),
				obs.KV("coupling", coupling.String()),
				obs.KV("wall_ms", wall),
				obs.KV("read_bytes", st.BytesRead()-readBefore),
				obs.KV("write_bytes", st.BytesWritten()-writeBefore),
				obs.KV("polls", st.Polls()-pollsBefore))
		}
		return t, nil
	}
	runOne := func(i int) error {
		t, err := exec(i, &attempt{stage: i, n: 1, machine: spec.Components[i].Machine})
		if err == nil {
			report.Timings[i] = t
		}
		return err
	}
	record := func(i int, t Timing) { report.Timings[i] = t }

	switch coupling {
	case CouplingSequential:
		if r.Serial {
			// One stage at a time, topological order, stop at the first
			// failure.
			order, err := spec.TopoOrder()
			if err != nil {
				return nil, err
			}
			for _, i := range order {
				if err := runOne(i); err != nil {
					return nil, err
				}
			}
		} else {
			err := r.runDAG(spec, exec, record, img)
			if eager != nil {
				eager.drain()
			}
			if err != nil {
				return nil, err
			}
		}
	case CouplingFiles, CouplingBuffers, CouplingObjects:
		errs := make([]error, len(spec.Components))
		wg := simclock.NewWaitGroup(clock)
		for i := range spec.Components {
			i := i
			wg.Add(1)
			clock.Go(spec.Components[i].Name, func() {
				defer wg.Done()
				errs[i] = runOne(i)
			})
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("workflow: unknown coupling %d", coupling)
	}
	report.Total = clock.Now().Sub(start)
	return report, nil
}

// checkTemplate refuses an FM template that sets what the runner fills per
// stage attempt: it would be silently overwritten.
func (r *Runner) checkTemplate() error {
	fm := reflect.ValueOf(r.FM)
	for _, name := range []string{"Machine", "Clock", "FS", "Dialer", "GNS", "Obs", "Hooks"} {
		if !fm.FieldByName(name).IsZero() {
			return fmt.Errorf("workflow: Runner.FM.%s is set; the runner fills it per stage", name)
		}
	}
	return nil
}

func (r *Runner) pollWork() float64 {
	if r.PollWork > 0 {
		return r.PollWork
	}
	return 0.004
}
