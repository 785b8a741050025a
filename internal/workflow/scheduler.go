package workflow

import (
	"errors"
	"sort"
	"sync"
	"time"

	"griddles/internal/gns"
	"griddles/internal/obs"
	"griddles/internal/simclock"
)

// This file is the ready-set DAG scheduler behind CouplingSequential.
//
// The paper's conclusion says file-copied workflows "need to be run
// sequentially" — but that constraint only holds along dependency edges: a
// stage must not start before its producers have closed their outputs.
// Independent DAG branches carry no such constraint, so the scheduler keeps
// a ready set (stages whose producers have all finished) and dispatches
// from it the moment a stage becomes runnable, subject to per-machine
// admission control:
//
//	pending --(all producers done)--> ready --(machine slot free)--> running --> done
//
// Runner.MaxPerMachine bounds how many stages may run concurrently on one
// machine (default 1, the paper's one-job-per-box regime — co-located
// stages still never overlap, so the Table 3/5 chains reproduce
// byte-identically). Ready stages are dispatched longest-critical-path
// first with the component index as a deterministic tie-break, so the
// DAG's spine starts as early as possible and a pure chain dispatches in
// exactly topological order, as Runner.Serial does.
//
// Failure semantics match the Serial executor: after a stage
// fails, no new stage is dispatched; in-flight stages drain and the error
// of the lowest-indexed failed component is returned.
//
// Two opt-in layers ride on the scheduler, both off by default:
//
//   - Runner.Journal appends each transition to a durable log
//     (journal.go) so a crashed coordinator can be resumed (recover.go).
//   - Runner.Speculate launches a second attempt of a straggling stage on
//     an idle machine (speculation.go). Both attempts of a stage race to a
//     first-writer-wins GNS commit; the loser's partial outputs are
//     discarded and its FM is interrupted so it stops at its next IO.

// Stage lifecycle states.
const (
	stPending = iota
	stReady
	stRunning
	stDone
)

// specSuffix namespaces every file a speculative attempt writes or stages,
// so speculation artifacts can never collide with the primary attempt's
// plain-named files on any machine.
const specSuffix = ".wfspec"

// ErrSpeculationLost is the error a losing attempt's IO returns after the
// sibling attempt committed the stage; the scheduler treats it as a
// discarded attempt, never as a stage failure.
var ErrSpeculationLost = errors.New("workflow: attempt lost the speculation race")

// attempt is one execution of a stage. A stage normally has exactly one
// (n=1, on the component's configured machine); speculation adds a second
// (n=2, on an idle machine). The interrupt hook is wired into the
// attempt's File Multiplexer so a lost attempt stops at its next open.
type attempt struct {
	stage   int
	n       int // 1 = primary, 2 = speculative
	machine string

	mu    sync.Mutex
	lost  bool
	saved []savedEntry // GNS entries to restore if a speculative attempt loses
}

// savedEntry is one GNS entry as it was before a speculative attempt's
// pre-staging overwrote it.
type savedEntry struct {
	machine string
	path    string
	mapping gns.Mapping
	had     bool
}

// interrupt implements core.Config.Interrupt for the attempt's FM.
func (a *attempt) interrupt() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lost {
		return ErrSpeculationLost
	}
	return nil
}

func (a *attempt) markLost() {
	a.mu.Lock()
	a.lost = true
	a.mu.Unlock()
}

// dagRun is one workflow execution's scheduler state. The dispatcher loop
// runs on the caller's goroutine; completions arrive from the per-stage
// goroutines under mu.
type dagRun struct {
	runner  *Runner
	spec    *Spec
	clock   simclock.Clock
	exec    func(int, *attempt) (Timing, error)
	record  func(int, Timing)
	maxPer  int
	journal *Journal
	kill    *KillSwitch
	prod    map[string]int
	cons    map[string][]int

	mu       sync.Mutex
	cond     simclock.Cond
	state    []int
	indeg    []int
	succ     [][]int
	prio     []float64 // critical-path length (work units to any sink)
	running  map[string]int
	done     int
	errs     []error
	failed   bool
	finished bool

	// Speculation bookkeeping.
	attempts  []int            // attempts launched per stage (0, 1, or 2)
	home      []string         // machine holding each done stage's outputs
	startAt   []time.Time      // dispatch time per running stage
	primAtt   map[int]*attempt // in-flight primary attempts
	specAtt   map[int]*attempt // in-flight speculative attempts
	durations []time.Duration  // completed stage durations (straggler baseline)
}

// runDAG executes spec's components under the ready-set scheduler. exec is
// the Runner's per-attempt body; each dispatched attempt gets its own
// clock-registered goroutine. A non-nil img seeds the run with a resumed
// journal's state: provably-done stages are marked done without
// re-dispatch, everything else is recomputed from the dependency edges.
func (r *Runner) runDAG(spec *Spec, exec func(int, *attempt) (Timing, error), record func(int, Timing), img *RunImage) error {
	if _, err := spec.TopoOrder(); err != nil {
		return err // duplicate producer or dependency cycle
	}
	prod, _ := spec.producers()
	n := len(spec.Components)
	d := &dagRun{
		runner:   r,
		spec:     spec,
		clock:    r.Grid.Clock(),
		exec:     exec,
		record:   record,
		maxPer:   r.maxPerMachine(),
		journal:  r.Journal,
		kill:     r.Kill,
		prod:     prod,
		cons:     spec.consumers(),
		state:    make([]int, n),
		indeg:    make([]int, n),
		succ:     make([][]int, n),
		prio:     criticalPaths(spec),
		running:  make(map[string]int),
		errs:     make([]error, n),
		attempts: make([]int, n),
		home:     make([]string, n),
		startAt:  make([]time.Time, n),
		primAtt:  make(map[int]*attempt),
		specAtt:  make(map[int]*attempt),
	}
	d.cond = d.clock.NewCond(&d.mu)
	for i, c := range spec.Components {
		d.home[i] = c.Machine
		for _, in := range c.Inputs {
			if p, ok := prod[in]; ok && p != i {
				d.succ[p] = append(d.succ[p], i)
				d.indeg[i]++
			}
		}
	}
	if img != nil {
		// Seed from the replayed journal: done stages stay done — their
		// outputs exist and are re-resolved through the GNS, never
		// recomputed. Running/ready/failed stages fall back to pending and
		// are re-derived from the edges below; re-dispatch is idempotent
		// because stage-out creates and copy-in truncates.
		for i, st := range img.States {
			if st != StageDone {
				continue
			}
			d.state[i] = stDone
			d.done++
			if h, ok := img.Home[i]; ok {
				d.home[i] = h
			}
			for _, j := range d.succ[i] {
				d.indeg[j]--
			}
		}
	}
	for i := 0; i < n; i++ {
		if d.state[i] == stPending && d.indeg[i] == 0 {
			d.state[i] = stReady
			d.journalState(i, StageReady, 0)
		}
	}
	if d.journal != nil && img != nil {
		// Anchor the resumed session: the journal's tail snapshot now
		// reflects exactly what this coordinator believes.
		d.journal.Snapshot(d.imageLocked())
	}
	if r.Speculate {
		d.clock.Go("wf-spec-monitor", d.monitor)
	}
	d.loop()
	if d.kill.Killed() {
		return ErrCoordinatorKilled
	}
	for _, err := range d.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// maxPerMachine reports the per-machine admission bound (0 means 1, the
// paper's one-job-per-box semantics).
func (r *Runner) maxPerMachine() int {
	if r.MaxPerMachine > 0 {
		return r.MaxPerMachine
	}
	return 1
}

// criticalPaths computes, per component, the longest WorkHint-weighted path
// from it to any sink (inclusive of its own work). The scheduler dispatches
// ready stages in decreasing critical-path order so the DAG's spine is
// never kept waiting behind a short side branch; AutoAssign uses the same
// priority to land the spine on the fastest boxes.
func criticalPaths(spec *Spec) []float64 {
	order, err := spec.TopoOrder()
	if err != nil {
		return make([]float64, len(spec.Components)) // caller reports the cycle
	}
	prod, _ := spec.producers()
	cons := spec.consumers()
	cp := make([]float64, len(spec.Components))
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		longest := 0.0
		for _, out := range spec.Components[i].Outputs {
			if prod[out] != i {
				continue
			}
			for _, j := range cons[out] {
				if j != i && cp[j] > longest {
					longest = cp[j]
				}
			}
		}
		cp[i] = workHint(spec.Components[i]) + longest
	}
	return cp
}

// loop dispatches until every stage is done, a failure has drained the
// in-flight stages, or the kill switch fired and the in-flight stages have
// drained (a dead coordinator does not kill jobs already running on remote
// machines — but it launches nothing new). Holding mu across dispatchLocked
// is safe: the attempt body runs on its own goroutine and only takes mu at
// completion.
func (d *dagRun) loop() {
	d.mu.Lock()
	defer func() {
		d.finished = true
		d.cond.Broadcast() // release the speculation monitor
		d.mu.Unlock()
	}()
	for {
		switch {
		case d.kill.Killed():
			if d.inflightLocked() == 0 {
				return
			}
		case d.done == len(d.spec.Components):
			return
		case d.failed:
			if d.inflightLocked() == 0 {
				return
			}
		default:
			for _, i := range d.runnableLocked() {
				if d.running[d.spec.Components[i].Machine] < d.maxPer {
					d.dispatchLocked(i)
					if d.kill.at(KillDispatch) {
						// The coordinator dies right after handing out a
						// stage: the journal already holds its running
						// record, nothing further is appended.
						d.journal.disable()
						break
					}
				}
			}
			if d.kill.Killed() {
				continue // re-evaluate as the drain condition
			}
		}
		d.cond.Wait()
	}
}

// inflightLocked counts running attempts (a speculated stage counts twice
// until one of its attempts returns).
func (d *dagRun) inflightLocked() int {
	return len(d.primAtt) + len(d.specAtt)
}

// runnableLocked returns the ready stages in dispatch order: longest
// critical path first, component index as the deterministic tie-break.
func (d *dagRun) runnableLocked() []int {
	var ready []int
	for i, st := range d.state {
		if st == stReady {
			ready = append(ready, i)
		}
	}
	sort.Slice(ready, func(a, b int) bool {
		if d.prio[ready[a]] != d.prio[ready[b]] {
			return d.prio[ready[a]] > d.prio[ready[b]]
		}
		return ready[a] < ready[b]
	})
	return ready
}

// imageLocked renders the scheduler state as journal states (the snapshot
// record payload).
func (d *dagRun) imageLocked() []uint8 {
	out := make([]uint8, len(d.state))
	for i, st := range d.state {
		switch st {
		case stReady:
			out[i] = StageReady
		case stRunning:
			out[i] = StageRunning
		case stDone:
			if d.errs[i] != nil {
				out[i] = StageFailed
			} else {
				out[i] = StageDone
			}
		default:
			out[i] = StagePending
		}
	}
	return out
}

// journalState appends one state record and interleaves a snapshot when the
// journal says the cadence is due. Callers hold mu.
func (d *dagRun) journalState(i int, st uint8, attemptN int) {
	if d.journal.State(i, st, attemptN) {
		d.journal.Snapshot(d.imageLocked())
	}
}

// dispatchLocked moves stage i to running and launches its primary attempt.
func (d *dagRun) dispatchLocked(i int) {
	comp := d.spec.Components[i]
	d.state[i] = stRunning
	d.running[comp.Machine]++
	d.attempts[i] = 1
	d.startAt[i] = d.clock.Now()
	att := &attempt{stage: i, n: 1, machine: comp.Machine}
	d.primAtt[i] = att
	r := d.runner
	r.Obs.Counter("wf.sched.dispatch.total").Inc()
	r.Obs.Gauge("wf.sched.running").Set(int64(d.inflightLocked()))
	r.Obs.Emit("wf.sched.dispatch", comp.Machine,
		obs.KV("workflow", d.spec.Name),
		obs.KV("component", comp.Name),
		obs.KV("priority", d.prio[i]),
		obs.KV("running_on_machine", d.running[comp.Machine]))
	d.journalState(i, StageRunning, 1)
	d.launchLocked(att, "wf-"+comp.Name)
}

// launchLocked starts att's goroutine; its completion funnels into finish.
func (d *dagRun) launchLocked(att *attempt, name string) {
	d.clock.Go(name, func() {
		t, err := d.exec(att.stage, att)
		d.mu.Lock()
		defer d.mu.Unlock()
		d.finish(att, t, err)
	})
}

// finish handles one attempt's completion under mu: commit, discard, fail,
// or win-and-repoint, then wake the dispatcher.
func (d *dagRun) finish(att *attempt, t Timing, err error) {
	i := att.stage
	comp := d.spec.Components[i]
	r := d.runner
	d.running[att.machine]--
	if att.n == 2 {
		delete(d.specAtt, i)
	} else {
		delete(d.primAtt, i)
	}
	defer func() {
		r.Obs.Gauge("wf.sched.running").Set(int64(d.inflightLocked()))
		d.cond.Broadcast()
	}()

	if d.state[i] == stDone {
		// The race is already decided: the sibling attempt committed while
		// this one was still running. Discard this attempt's partials.
		d.loseLocked(att)
		return
	}

	if err != nil {
		if errors.Is(err, ErrSpeculationLost) {
			d.loseLocked(att)
			return
		}
		if d.siblingLocked(att) != nil {
			// This attempt died but its sibling is still racing; the stage
			// itself is not failed. Treat the broken attempt as a loser.
			d.loseLocked(att)
			return
		}
		d.state[i] = stDone
		d.done++
		d.errs[i] = err
		d.failed = true
		r.Obs.Counter("wf.sched.fail.total").Inc()
		r.Obs.Emit("wf.sched.fail", att.machine,
			obs.KV("workflow", d.spec.Name),
			obs.KV("component", comp.Name))
		d.journalState(i, StageFailed, att.n)
		return
	}

	if d.attempts[i] > 1 {
		// A race was opened for this stage: outputs commit through a
		// first-writer-wins GNS claim, the single arbiter both attempts
		// share even across machines.
		if _, won := r.GNS.SetIfAbsent(commitScope(d.spec), commitKey(comp.Name),
			gns.Mapping{Mode: gns.ModeLocal, LocalPath: att.machine}); !won {
			d.loseLocked(att)
			return
		}
		if sib := d.siblingLocked(att); sib != nil {
			sib.markLost() // cut the loser off at its next IO
		}
		if att.n == 2 {
			r.Obs.Counter("wf.spec.win.total").Inc()
			r.Obs.Emit("wf.spec.win", att.machine,
				obs.KV("workflow", d.spec.Name),
				obs.KV("component", comp.Name))
		}
		d.journal.Spec(SpecWin, i, att.n, att.machine)
		if att.machine != comp.Machine {
			d.repointLocked(i, att.machine)
		}
	}
	d.home[i] = att.machine
	d.state[i] = stDone
	d.done++
	d.record(i, t)
	d.durations = append(d.durations, t.Finish-t.Start)
	d.journalState(i, StageDone, att.n)
	for _, j := range d.succ[i] {
		d.indeg[j]--
		if d.indeg[j] == 0 && d.state[j] == stPending {
			d.state[j] = stReady
			d.journalState(j, StageReady, 0)
		}
	}
}

// siblingLocked returns the other in-flight attempt of att's stage, if any.
func (d *dagRun) siblingLocked(att *attempt) *attempt {
	if att.n == 2 {
		return d.primAtt[att.stage]
	}
	return d.specAtt[att.stage]
}

// loseLocked discards a losing or broken attempt: its partial outputs are
// removed from its machine and, for a speculative attempt, the GNS entries
// its pre-staging overwrote are restored (the version bump makes any eager
// copy started under the speculative mapping discard itself at claim time).
func (d *dagRun) loseLocked(att *attempt) {
	att.markLost()
	i := att.stage
	comp := d.spec.Components[i]
	r := d.runner
	fs := r.Grid.Machine(att.machine).FS()
	for _, f := range comp.Outputs {
		if d.prod[f] != i {
			continue
		}
		fs.Remove(attemptPath(f, att.n))
	}
	for _, s := range att.saved {
		if s.had {
			r.GNS.Set(s.machine, s.path, s.mapping)
		} else {
			r.GNS.Delete(s.machine, s.path)
		}
	}
	if att.n == 2 || d.attempts[i] > 1 {
		r.Obs.Counter("wf.spec.lose.total").Inc()
		r.Obs.Emit("wf.spec.lose", att.machine,
			obs.KV("workflow", d.spec.Name),
			obs.KV("component", comp.Name),
			obs.KV("attempt", att.n))
		d.journal.Spec(SpecLose, i, att.n, att.machine)
	}
}

// repointLocked rewires every consumer of stage i's outputs to the winning
// machine. The winner is a speculative attempt, so its files live under the
// specSuffix namespace; consumers on other machines stage them with a copy
// whose local path keeps that namespace too — it must never collide with
// the plain-named file the losing primary may have half-written or eagerly
// staged there.
func (d *dagRun) repointLocked(i int, winner string) {
	repoint(d.runner, d.spec, d.prod, d.cons, i, winner)
}

// repoint is the machinery behind repointLocked, shared with the resume
// path (which must re-apply wins recorded in the journal after Configure
// rewrote the default entries).
func repoint(r *Runner, spec *Spec, prod map[string]int, cons map[string][]int, i int, winner string) {
	for _, f := range spec.Components[i].Outputs {
		if prod[f] != i {
			continue
		}
		wp := f + specSuffix
		for _, ci := range cons[f] {
			if ci == i {
				continue
			}
			cm := spec.Components[ci].Machine
			if cm == winner {
				r.GNS.Set(cm, f, gns.Mapping{Mode: gns.ModeLocal, LocalPath: wp})
			} else {
				r.GNS.Set(cm, f, gns.Mapping{
					Mode:       gns.ModeCopy,
					RemoteHost: winner + FileServicePort,
					RemotePath: wp,
					LocalPath:  wp,
				})
			}
		}
	}
}

// attemptPath is where attempt n of a stage writes output file f on its own
// machine: the primary uses the plain name, a speculative attempt the
// specSuffix namespace.
func attemptPath(f string, n int) string {
	if n == 2 {
		return f + specSuffix
	}
	return f
}

// commitScope and commitKey name the first-writer-wins claim a speculated
// stage's attempts race for. The "wf!"/"commit!" prefixes keep the keys out
// of any real machine/file namespace.
func commitScope(spec *Spec) string { return "wf!" + spec.Name }
func commitKey(name string) string  { return "commit!" + name }
