package workflow

import (
	"sync"

	"griddles/internal/gns"
	"griddles/internal/gridftp"
	"griddles/internal/obs"
	"griddles/internal/simclock"
)

// Eager stage-in: under the DAG scheduler, a consumer stage's input copy
// normally runs inside the consumer's own slot, serialised after all the
// upstream compute. With Runner.EagerCopy the tracker below starts the
// copy the moment the producer closes the file — the FM's CloseNotify hook
// fires after stage-out and markers have settled — so the transfer overlaps
// whatever the producer (and any other stage) still computes. When the
// consumer is finally dispatched, its FM's mode-2 open claims the eager
// copy through the core.Prestager interface instead of re-copying; a claim
// of an in-flight copy parks (clock-aware) only for the un-hidden tail.
//
// Coherence: each copy records the GNS mapping it was started under. A
// claim whose open-time mapping differs in version or coordinates — the
// GNS was edited between close and open — is refused and counted as a
// discard, and the open falls back to the ordinary stage-in. A failed
// eager copy (network fault mid-flight) likewise refuses the claim; the
// fallback CopyIn truncates the partial file, so output bytes are
// identical with and without eager copies.

// eagerKey identifies one staged destination: the consumer's machine and
// the open path.
type eagerKey struct {
	machine string
	path    string
}

// eagerEntry is one eager copy, in flight or settled.
type eagerEntry struct {
	mapping gns.Mapping     // mapping the copy was started under
	done    *simclock.Event // fires when the copy settles
	bytes   int64
	failed  bool
}

// eagerTracker starts eager copies on produce notifications and serves
// claims from consumer FMs. It implements core.Prestager.
type eagerTracker struct {
	runner *Runner
	spec   *Spec
	clock  simclock.Clock
	cons   map[string][]int

	mu      sync.Mutex
	entries map[eagerKey]*eagerEntry
	wg      *simclock.WaitGroup
}

func newEagerTracker(r *Runner, spec *Spec) *eagerTracker {
	clock := r.Grid.Clock()
	return &eagerTracker{
		runner:  r,
		spec:    spec,
		clock:   clock,
		cons:    spec.consumers(),
		entries: make(map[eagerKey]*eagerEntry),
		wg:      simclock.NewWaitGroup(clock),
	}
}

// produced handles a producer-side close of path on producerMachine: it
// starts one copy toward every remote consumer machine whose mapping
// stages from that producer.
func (t *eagerTracker) produced(producerMachine, path string) {
	for _, ci := range t.cons[path] {
		cm := t.spec.Components[ci].Machine
		if cm != producerMachine {
			t.start(cm, path, producerMachine)
		}
	}
}

// start launches the eager copy of path toward consumerMachine, unless one
// is already running or the consumer's mapping doesn't stage from the
// producer (e.g. buffer coupling, or a GNS edit pointed it elsewhere).
func (t *eagerTracker) start(consumerMachine, path, producerMachine string) {
	mapping, err := t.runner.GNS.Resolve(consumerMachine, path)
	if err != nil || mapping.Mode != gns.ModeCopy || mapping.RemoteHost != producerMachine+FileServicePort {
		return
	}
	key := eagerKey{consumerMachine, path}
	t.mu.Lock()
	if _, dup := t.entries[key]; dup {
		t.mu.Unlock()
		return
	}
	e := &eagerEntry{mapping: mapping, done: simclock.NewEvent(t.clock)}
	t.entries[key] = e
	t.wg.Add(1)
	t.mu.Unlock()

	r := t.runner
	r.Journal.Eager(EagerLaunch, consumerMachine, path)
	r.Obs.Counter("wf.eagercopy.start.total").Inc()
	r.Obs.Emit("wf.eagercopy.start", consumerMachine,
		obs.KV("workflow", t.spec.Name),
		obs.KV("path", path),
		obs.KV("from", mapping.RemoteHost))
	machine := r.Grid.Machine(consumerMachine)
	rp := mapping.RemotePath
	if rp == "" {
		rp = path
	}
	lp := mapping.LocalPath
	if lp == "" {
		lp = path
	}
	t.clock.Go("eagercopy-"+consumerMachine+"-"+path, func() {
		defer t.wg.Done()
		c := gridftp.NewClient(machine, mapping.RemoteHost, t.clock)
		defer c.Close()
		n, err := c.CopyIn(rp, machine.FS(), lp, r.FM.CopyStreams)
		if err != nil {
			e.failed = true
			r.Obs.Counter("wf.eagercopy.fail.total").Inc()
			r.Obs.Emit("wf.eagercopy.fail", consumerMachine,
				obs.KV("path", path), obs.KV("error", err.Error()))
		} else {
			e.bytes = n
			r.Obs.Counter("wf.eagercopy.bytes").Add(n)
		}
		e.done.Set()
	})
}

// Claim implements core.Prestager: it adopts the eager copy of
// (machine, path) if one was started under the same mapping, waiting for
// an in-flight copy to settle. Each entry is claimable once.
func (t *eagerTracker) Claim(machine, path string, mapping gns.Mapping) (int64, bool) {
	key := eagerKey{machine, path}
	t.mu.Lock()
	e, ok := t.entries[key]
	if ok {
		delete(t.entries, key)
	}
	t.mu.Unlock()
	if !ok {
		return 0, false
	}
	// Settle before deciding, adopt or not: a refused claim makes the FM
	// fall back to an open-time CopyIn over the mapping's local path, and
	// that truncate-and-write must never race a still-running eager copy
	// goroutine writing the same file.
	e.done.Wait()
	r := t.runner
	if e.mapping.Version != mapping.Version ||
		e.mapping.RemoteHost != mapping.RemoteHost ||
		e.mapping.RemotePath != mapping.RemotePath ||
		e.mapping.LocalPath != mapping.LocalPath {
		// The GNS was remapped between close and open: the staged bytes may
		// be from the wrong source or in the wrong place. Discard.
		t.removeStale(machine, path, e.mapping, mapping)
		r.Journal.Eager(EagerDiscard, machine, path)
		r.Obs.Counter("wf.eagercopy.discard.total").Inc()
		r.Obs.Emit("wf.eagercopy.discard", machine,
			obs.KV("path", path),
			obs.KV("copied_version", e.mapping.Version),
			obs.KV("open_version", mapping.Version))
		return 0, false
	}
	if e.failed {
		return 0, false
	}
	r.Journal.Eager(EagerAdopt, machine, path)
	r.Obs.Counter("wf.eagercopy.adopt.total").Inc()
	r.Obs.Emit("wf.eagercopy.adopt", machine,
		obs.KV("path", path), obs.KV("bytes", e.bytes))
	return e.bytes, true
}

// removeStale deletes the bytes a discarded eager copy left at its old
// mapping's local path. Skipped when the open-time mapping stages to the
// same path — the fallback CopyIn truncates it anyway. Called only after
// the copy has settled, so nothing re-creates the file afterwards.
func (t *eagerTracker) removeStale(machine, path string, copied, open gns.Mapping) {
	old := copied.LocalPath
	if old == "" {
		old = path
	}
	cur := open.LocalPath
	if cur == "" {
		cur = path
	}
	if old == cur {
		return
	}
	t.runner.Grid.Machine(machine).FS().Remove(old)
}

// drain blocks until every launched copy has settled, claimed or not, so a
// finished Run leaves no transfer running on the grid.
func (t *eagerTracker) drain() { t.wg.Wait() }
