package simclock

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Virtual is a deterministic discrete-event implementation of Clock.
//
// Goroutines participating in simulated time must be spawned with Go (or be
// the root function passed to Run). The clock advances to the earliest
// pending timer whenever every registered goroutine is parked in Sleep or in
// a Cond wait, until the root returns: then time stops, and a goroutine
// still parked stays parked (see Live). If all registered goroutines are
// parked in untimed Cond waits
// and no timer is pending while the root is still alive, the simulation can
// never progress; Virtual panics with a full goroutine dump so the lost wake
// is findable.
//
// Determinism: timer fires are ordered by (deadline, registration sequence),
// so runs are reproducible whenever goroutines woken at the same instant do
// not race on shared state outside the clock-aware primitives.
//
// Allocation: an event costs no allocation once the clock has warmed up. A
// parked goroutine waits on a waiter taken from a free list, with a wake
// channel the waiter keeps; a timer is recycled once it fires or is stopped;
// and while Run is active a registered goroutine whose function returned
// waits to be handed the next Go's function instead of exiting, so its grown
// stack is reused rather than regrown.
type Virtual struct {
	mu         sync.Mutex
	base       time.Time
	now        time.Duration
	seq        uint64
	runnable   int
	condWait   int // goroutines parked in untimed Cond waits
	timers     timerHeap
	rootExited bool

	// Recycled per-event state.
	freeWaiters *vwaiter
	freeTimers  *timer
	idle        []chan vjob // goroutines waiting for a function, most recent last
	running     bool        // inside Run: a finished goroutine idles instead of exiting

	// Failure propagation: a panic on any registered goroutine (including
	// the synthetic deadlock panic) aborts the simulation and is re-panicked
	// on the goroutine that called Run, so tests can recover it.
	fatal   any
	fatalCh chan struct{}
	aborted bool
}

// NewVirtual returns a Virtual clock whose epoch is base.
func NewVirtual(base time.Time) *Virtual {
	return &Virtual{base: base, fatalCh: make(chan struct{})}
}

// DefaultBase is the epoch used by NewVirtualDefault: the month the paper's
// venue (IPPS 2004, Santa Fe) took place. Any fixed instant would do; a
// fixed one keeps experiment logs stable.
var DefaultBase = time.Date(2004, time.April, 26, 0, 0, 0, 0, time.UTC)

// NewVirtualDefault returns a Virtual clock with the DefaultBase epoch.
func NewVirtualDefault() *Virtual { return NewVirtual(DefaultBase) }

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.base.Add(v.now)
}

// Elapsed reports simulated time since the epoch.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock. It must be called from a registered goroutine.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	w := v.waiterLocked()
	w.parked, w.timed = true, true
	v.addTimerLocked(v.now+d, w)
	v.park()
	v.mu.Unlock()
	<-w.wake
	v.mu.Lock()
	v.freeWaiterLocked(w)
	v.mu.Unlock()
}

// vjob is a function Go hands to a registered goroutine between two
// functions, on that goroutine's one-slot channel; a nil fn ends it.
type vjob struct {
	name string
	fn   func()
}

// Go implements Clock. While Run is active it hands fn to a goroutine whose
// previous function returned, if one is idle, and starts one otherwise.
func (v *Virtual) Go(name string, fn func()) {
	v.mu.Lock()
	v.runnable++
	if n := len(v.idle); n > 0 {
		jobs := v.idle[n-1]
		v.idle[n-1] = nil
		v.idle = v.idle[:n-1]
		v.mu.Unlock()
		jobs <- vjob{name, fn}
		return
	}
	v.mu.Unlock()
	go v.work(vjob{name, fn})
}

// work runs jobs on one registered goroutine until Run ends, the simulation
// aborts, or a job exits the goroutine (runtime.Goexit, as t.Fatal does).
func (v *Virtual) work(j vjob) {
	jobs := make(chan vjob, 1)
	for v.call(j, jobs) {
		if j = <-jobs; j.fn == nil {
			return
		}
	}
}

// call runs one job and parks its goroutine when the job returns, panics or
// exits. A goroutine whose job returned while Run is active joins the idle
// list under the same lock as it parks, so a Go that its park lets run finds
// it there; call reports whether it did.
func (v *Virtual) call(j vjob, jobs chan vjob) (idle bool) {
	returned := false
	defer func() {
		r := recover()
		v.mu.Lock()
		if r != nil {
			v.failLocked(fmt.Sprintf("simclock: goroutine %q panicked: %v", j.name, r))
		}
		v.park()
		if returned && v.running && !v.aborted {
			v.idle = append(v.idle, jobs)
			idle = true
		}
		v.mu.Unlock()
	}()
	j.fn()
	returned = true
	return false
}

// Run executes root as a registered goroutine and blocks the (unregistered)
// caller until it returns. Time stops when root returns: goroutines left
// parked then (e.g. the accept loop of a service nobody stopped) stay
// parked, and do not trigger the deadlock panic.
// A panic on any registered goroutine — or a detected deadlock — aborts the
// simulation and re-panics here, on the caller's goroutine. Goroutines idle
// between two functions exit when Run returns, and one whose function
// returns later exits then: a clock is usually dropped after its Run, and
// its idle goroutines would otherwise wait for a function forever.
func (v *Virtual) Run(root func()) {
	v.mu.Lock()
	v.rootExited = false
	v.running = true
	v.mu.Unlock()
	done := make(chan struct{})
	v.Go("root", func() {
		defer close(done)
		defer func() {
			v.mu.Lock()
			v.rootExited = true
			v.mu.Unlock()
		}()
		root()
	})
	select {
	case <-done:
	case <-v.fatalCh:
	}
	// Goroutines still registered are daemons (or the simulation aborted):
	// those that finish from now on exit, and the idle ones exit now.
	v.mu.Lock()
	f := v.fatal
	v.running = false
	idle := v.idle
	v.idle = nil
	v.mu.Unlock()
	for _, jobs := range idle {
		jobs <- vjob{}
	}
	if f != nil {
		panic(f)
	}
}

// Live reports how many goroutines registered on v are still parked after
// Run: in an untimed Cond wait, or on a timer, which no longer fires once
// the root has returned. It first waits for every registered goroutine to
// park or return, so one still finishing the function whose last act woke
// the root is not counted. A goroutine blocked outside the clock would have
// stalled the simulation's time, and it stalls Live the same way.
func (v *Virtual) Live() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.runnable > 0 {
		v.mu.Unlock()
		runtime.Gosched()
		v.mu.Lock()
	}
	return v.condWait + len(v.timers)
}

// failLocked records the first fatal error, aborts further time advance and
// wakes Run. Later failures are dropped. Callers hold v.mu.
func (v *Virtual) failLocked(msg any) {
	if v.aborted {
		return
	}
	v.aborted = true
	v.fatal = msg
	close(v.fatalCh)
}

// park marks the calling registered goroutine as no longer runnable and
// advances the clock if it was the last one. Callers hold v.mu.
func (v *Virtual) park() {
	v.runnable--
	v.advanceLocked()
}

// NewCond implements Clock.
func (v *Virtual) NewCond(l sync.Locker) Cond { return &vcond{v: v, l: l} }

// timer is a pending virtual-time event: when it fires, its waiter times
// out. A timer is recycled once it fires or is stopped.
type timer struct {
	at   time.Duration
	seq  uint64
	w    *vwaiter
	idx  int
	next *timer // free list
}

func (v *Virtual) addTimerLocked(at time.Duration, w *vwaiter) {
	t := v.freeTimers
	if t == nil {
		t = new(timer)
	} else {
		v.freeTimers = t.next
	}
	*t = timer{at: at, seq: v.seq, w: w}
	v.seq++
	heap.Push(&v.timers, t)
	w.timer = t
}

// stopTimerLocked takes t out of the heap. The order of the timers left is
// their (deadline, sequence) order whatever the heap's shape, so removing
// one now or skipping it when it comes due fires the rest identically.
func (v *Virtual) stopTimerLocked(t *timer) {
	heap.Remove(&v.timers, t.idx)
	v.freeTimerLocked(t)
}

func (v *Virtual) freeTimerLocked(t *timer) {
	*t = timer{next: v.freeTimers}
	v.freeTimers = t
}

// advanceLocked advances simulated time while no registered goroutine is
// runnable and the root has not returned, firing due timers in
// deterministic order.
func (v *Virtual) advanceLocked() {
	for v.runnable == 0 && !v.aborted && !v.rootExited {
		if len(v.timers) == 0 {
			if v.condWait > 0 {
				v.deadlockLocked()
			}
			return
		}
		t0 := v.timers[0].at
		if t0 > v.now {
			v.now = t0
		}
		for len(v.timers) > 0 && v.timers[0].at == t0 {
			t := heap.Pop(&v.timers).(*timer)
			w := t.w
			v.freeTimerLocked(t)
			v.timeOutLocked(w)
		}
	}
}

func (v *Virtual) deadlockLocked() {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	v.failLocked(fmt.Sprintf(
		"simclock: deadlock at virtual t=%v: %d goroutines in untimed Cond waits, no pending timers\n%s",
		v.now, v.condWait, buf[:n]))
}

const (
	wPending = iota
	wSignaled
	wTimedOut
)

// vwaiter is one parked goroutine: a sleeper, or a Cond waiter. Its owner
// takes it from the clock's free list and returns it when it resumes; by
// then it is in no Cond's list and has no timer, so its next owner cannot be
// woken by anything meant for the last.
type vwaiter struct {
	wake   chan struct{} // one slot: a wake sent before the owner blocks waits there
	state  int
	timer  *timer
	cond   *vcond // the Cond whose list holds the waiter; nil for a sleeper
	parked bool   // the waiter has decremented runnable
	timed  bool   // registered with a timeout (not counted in condWait)
	next   *vwaiter
}

// resumeLocked sends the parked owner its wake. The slot is empty unless the
// waiter was woken twice, which would leak a wake into its next use: that
// aborts the simulation.
func (v *Virtual) resumeLocked(w *vwaiter) {
	select {
	case w.wake <- struct{}{}:
	default:
		v.failLocked("simclock: a waiter was woken twice")
	}
}

func (v *Virtual) waiterLocked() *vwaiter {
	w := v.freeWaiters
	if w == nil {
		return &vwaiter{wake: make(chan struct{}, 1)}
	}
	v.freeWaiters = w.next
	w.next = nil
	return w
}

func (v *Virtual) freeWaiterLocked(w *vwaiter) {
	*w = vwaiter{wake: w.wake, next: v.freeWaiters}
	v.freeWaiters = w
}

// timeOutLocked ends a waiter's wait because its timer fired: a Cond waiter
// leaves its Cond's list at once, so no later Signal is spent on it. Only a
// parked owner is sent the wake; one that has not parked yet sees the state
// change before it would.
func (v *Virtual) timeOutLocked(w *vwaiter) {
	w.timer = nil
	w.state = wTimedOut
	if w.cond != nil {
		w.cond.removeLocked(w)
	}
	if w.parked {
		v.runnable++
		v.resumeLocked(w)
	}
}

// signalLocked ends a Cond waiter's wait because it was signaled; the caller
// has taken it off the Cond's list.
func (v *Virtual) signalLocked(w *vwaiter) {
	w.state = wSignaled
	if w.timer != nil {
		v.stopTimerLocked(w.timer)
		w.timer = nil
	}
	if w.parked {
		if !w.timed {
			v.condWait--
		}
		v.runnable++
		v.resumeLocked(w)
	}
}

// vcond is the Virtual implementation of Cond.
type vcond struct {
	v       *Virtual
	l       sync.Locker
	waiters []*vwaiter // pending waiters, in arrival order; guarded by v.mu
}

// wait implements Wait/WaitTimeout in three phases:
//
//  1. register the waiter (still runnable) so a Signal between the
//     associated-lock release and the park cannot be lost;
//  2. release the caller's lock — crucially while still counted runnable,
//     because releasing a clock-aware Mutex can wake other goroutines and
//     the quiescence detector must not see a moment where this goroutine is
//     "parked" yet still has that work to do;
//  3. park (leave the runnable count) and block, unless a wake already
//     arrived during phase 2.
func (c *vcond) wait(d time.Duration) bool {
	v := c.v

	v.mu.Lock()
	w := v.waiterLocked()
	w.cond = c
	c.waiters = append(c.waiters, w)
	if d >= 0 {
		w.timed = true
		v.addTimerLocked(v.now+d, w)
	}
	v.mu.Unlock()

	c.l.Unlock()

	v.mu.Lock()
	if w.state == wPending {
		w.parked = true
		if !w.timed {
			v.condWait++
		}
		v.park()
		v.mu.Unlock()
		<-w.wake
		v.mu.Lock()
	}
	// Otherwise signaled (or timed out) before we parked, and sent no wake.
	signaled := w.state == wSignaled
	v.freeWaiterLocked(w)
	v.mu.Unlock()

	c.l.Lock()
	return signaled
}

func (c *vcond) Wait() { c.wait(-1) }

func (c *vcond) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		c.Wait()
		return true
	}
	return c.wait(d)
}

// removeLocked takes a waiter that timed out off the list, keeping the order
// of the rest.
func (c *vcond) removeLocked(w *vwaiter) {
	for i, x := range c.waiters {
		if x == w {
			n := copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[i+n] = nil
			c.waiters = c.waiters[:i+n]
			return
		}
	}
}

func (c *vcond) Signal() {
	c.v.mu.Lock()
	if len(c.waiters) > 0 {
		w := c.waiters[0]
		c.removeLocked(w)
		c.v.signalLocked(w)
	}
	c.v.mu.Unlock()
}

func (c *vcond) Broadcast() {
	c.v.mu.Lock()
	for _, w := range c.waiters {
		c.v.signalLocked(w)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
	c.v.mu.Unlock()
}

// timerHeap orders timers by (deadline, sequence).
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*timer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
