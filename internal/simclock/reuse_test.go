package simclock

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSleepAllocatesNothing: in steady state a Sleep takes its waiter and
// timer from the clock's free lists.
func TestSleepAllocatesNothing(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		if n := testing.AllocsPerRun(200, func() { v.Sleep(time.Millisecond) }); n != 0 {
			t.Errorf("Sleep allocates %v times per call, want 0", n)
		}
	})
}

// TestCondRoundTripAllocatesNothing: a WaitTimeout ended by a Signal from
// another goroutine (which sleeps first) allocates nothing in steady state,
// on either side.
func TestCondRoundTripAllocatesNothing(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		var mu sync.Mutex
		cond := v.NewCond(&mu)
		stop := false
		v.Go("signaler", func() {
			for {
				v.Sleep(time.Millisecond)
				mu.Lock()
				cond.Signal()
				done := stop
				mu.Unlock()
				if done {
					return
				}
			}
		})
		n := testing.AllocsPerRun(200, func() {
			mu.Lock()
			if !cond.WaitTimeout(time.Hour) {
				t.Error("WaitTimeout timed out, want the signal")
			}
			mu.Unlock()
		})
		if n != 0 {
			t.Errorf("a WaitTimeout/Signal round trip allocates %v times, want 0", n)
		}
		mu.Lock()
		stop = true
		mu.Unlock()
	})
}

// TestGoReusesIdleGoroutines: while Run is active, a Go after another
// goroutine's function returned runs on that goroutine; once Run returns the
// idle goroutines exit.
func TestGoReusesIdleGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	v := NewVirtualDefault()
	var peak int
	v.Run(func() {
		for i := 0; i < 50; i++ {
			wg := NewWaitGroup(v)
			wg.Add(4)
			for j := 0; j < 4; j++ {
				v.Go("short", func() {
					v.Sleep(time.Millisecond)
					wg.Done()
				})
			}
			wg.Wait()
			v.Sleep(time.Millisecond) // the four finish and go idle
			peak = max(peak, runtime.NumGoroutine())
		}
	})
	// The root and the four workers, whatever else the test binary runs.
	if extra := peak - before; extra > 5 {
		t.Errorf("200 short goroutines peaked at %d goroutines beyond the %d before Run, want at most 5", extra, before)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines left after Run returned, want %d", n, before)
	}
}

// TestWaiterReuseProperty drives seeded schedules in which Signal, Broadcast
// and WaitTimeout deadlines fall on the same virtual instants, and in which a
// waiter that timed out waits again at once, on another Cond, reusing the
// waiter it just gave back. A model decides every wait's outcome: a Signal
// goes to the first waiter on that Cond whose wait has neither been
// signaled nor reached its deadline (every deadline due at an instant fires
// before anything runs at it), a Broadcast to all of them. Each wait must
// then return the model's answer at the model's instant: a lost wake returns
// false or never, a spurious or stale wake returns true where the model says
// false. After each schedule the same clock must still report a true
// deadlock.
func TestWaiterReuseProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runReuseSchedule(t, seed)
	}
}

// reuseTicket is one wait as the model sees it.
type reuseTicket struct {
	deadline time.Duration // -1: untimed
	signaled bool
	at       time.Duration // when the model's wake was delivered
}

func runReuseSchedule(t *testing.T, seed int64) {
	t.Helper()
	const (
		conds   = 3
		waiters = 6
		waits   = 12
		tick    = time.Millisecond
	)
	rng := rand.New(rand.NewSource(seed))
	v := NewVirtualDefault()
	var mu sync.Mutex // the locker of every Cond, and the model's guard
	cs := make([]Cond, conds)
	for i := range cs {
		cs[i] = v.NewCond(&mu)
	}
	queue := make([][]*reuseTicket, conds) // per Cond, in arrival order
	live := func(tk *reuseTicket, now time.Duration) bool {
		return !tk.signaled && (tk.deadline < 0 || tk.deadline > now)
	}
	wake := func(c int, all bool) {
		now := v.Elapsed()
		for _, tk := range queue[c] {
			if live(tk, now) {
				tk.signaled, tk.at = true, now
				if !all {
					return
				}
			}
		}
	}
	drop := func(c int, tk *reuseTicket) {
		for i, x := range queue[c] {
			if x == tk {
				queue[c] = append(queue[c][:i], queue[c][i+1:]...)
				return
			}
		}
	}

	// Pre-draw every goroutine's plan so the schedule is the seed's alone.
	type step struct {
		cond    int
		timeout time.Duration // -1: untimed
	}
	plans := make([][]step, waiters)
	for w := range plans {
		for i := 0; i < waits; i++ {
			s := step{cond: rng.Intn(conds), timeout: time.Duration(1+rng.Intn(4)) * tick}
			if rng.Intn(5) == 0 {
				s.timeout = -1
			}
			plans[w] = append(plans[w], s)
		}
	}
	type poke struct {
		after time.Duration
		cond  int
		all   bool
	}
	var pokes []poke
	for i := 0; i < waiters*waits; i++ {
		pokes = append(pokes, poke{time.Duration(rng.Intn(3)) * tick, rng.Intn(conds), rng.Intn(4) == 0})
	}

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	v.Run(func() {
		done := NewWaitGroup(v)
		finished := 0
		for w := 0; w < waiters; w++ {
			done.Add(1)
			plan := plans[w]
			v.Go("waiter", func() {
				defer done.Done()
				for i, s := range plan {
					mu.Lock()
					start := v.Elapsed()
					tk := &reuseTicket{deadline: -1}
					if s.timeout >= 0 {
						tk.deadline = start + s.timeout
					}
					queue[s.cond] = append(queue[s.cond], tk)
					got := cs[s.cond].WaitTimeout(s.timeout)
					now := v.Elapsed()
					drop(s.cond, tk)
					if got != tk.signaled {
						fail("wait %d on cond %d from %v: WaitTimeout = %v, model says %v", i, s.cond, start, got, tk.signaled)
					}
					if want := tk.at; tk.signaled && now != want {
						fail("wait %d on cond %d: woken at %v, signaled at %v", i, s.cond, now, want)
					}
					if want := tk.deadline; !tk.signaled && now != want {
						fail("wait %d on cond %d: timed out at %v, deadline %v", i, s.cond, now, want)
					}
					if i == len(plan)-1 {
						finished++
					}
					mu.Unlock()
				}
			})
		}
		v.Go("poker", func() {
			for _, p := range pokes {
				v.Sleep(p.after)
				mu.Lock()
				wake(p.cond, p.all)
				if p.all {
					cs[p.cond].Broadcast()
				} else {
					cs[p.cond].Signal()
				}
				mu.Unlock()
			}
			// Then release untimed waits until every waiter is through.
			for {
				v.Sleep(tick)
				mu.Lock()
				all := finished == waiters
				for c := range cs {
					wake(c, true)
					cs[c].Broadcast()
				}
				mu.Unlock()
				if all {
					return
				}
			}
		})
		done.Wait()
	})
	for _, f := range failures {
		t.Errorf("seed %d: %s", seed, f)
	}

	// The free lists are warm now; a true deadlock must still be reported.
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Errorf("seed %d: a true deadlock after the schedule panicked with %v, want the deadlock report", seed, r)
		}
	}()
	v.Run(func() {
		var dmu sync.Mutex
		never := v.NewCond(&dmu)
		dmu.Lock()
		never.Wait()
	})
}
