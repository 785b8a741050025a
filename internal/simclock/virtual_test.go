package simclock

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		start := v.Now()
		v.Sleep(90 * time.Minute)
		if got := v.Now().Sub(start); got != 90*time.Minute {
			t.Errorf("slept %v, want 90m", got)
		}
	})
	if v.Elapsed() != 90*time.Minute {
		t.Errorf("elapsed %v, want 90m", v.Elapsed())
	}
}

func TestVirtualZeroAndNegativeSleep(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
	})
	if v.Elapsed() != 0 {
		t.Errorf("elapsed %v, want 0", v.Elapsed())
	}
}

func TestVirtualConcurrentSleepersOverlap(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		wg := NewWaitGroup(v)
		for i := 0; i < 10; i++ {
			wg.Add(1)
			v.Go("sleeper", func() {
				defer wg.Done()
				v.Sleep(time.Hour)
			})
		}
		wg.Wait()
	})
	if v.Elapsed() != time.Hour {
		t.Errorf("10 concurrent 1h sleeps took %v, want exactly 1h", v.Elapsed())
	}
}

func TestVirtualSequentialSleepsAccumulate(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		for i := 0; i < 5; i++ {
			v.Sleep(time.Minute)
		}
	})
	if v.Elapsed() != 5*time.Minute {
		t.Errorf("elapsed %v, want 5m", v.Elapsed())
	}
}

func TestVirtualTimerOrderDeterministic(t *testing.T) {
	run := func() []int {
		v := NewVirtualDefault()
		var mu sync.Mutex
		var order []int
		v.Run(func() {
			wg := NewWaitGroup(v)
			durs := []time.Duration{5, 3, 9, 3, 1, 7, 5}
			for i, d := range durs {
				wg.Add(1)
				d := d * time.Millisecond
				v.Go("t", func() {
					defer wg.Done()
					v.Sleep(d)
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				})
			}
			wg.Wait()
		})
		return order
	}
	got := run()
	if len(got) != 7 {
		t.Fatalf("got %d events, want 7", len(got))
	}
	// Events must be sorted by their durations (ties in either order).
	durs := []int{5, 3, 9, 3, 1, 7, 5}
	prev := -1
	for _, idx := range got {
		if durs[idx] < prev {
			t.Errorf("fire order %v not sorted by deadline", got)
		}
		prev = durs[idx]
	}
}

func TestVirtualCondSignalWakesOne(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		var mu sync.Mutex
		cond := v.NewCond(&mu)
		woken := 0
		wg := NewWaitGroup(v)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			v.Go("w", func() {
				defer wg.Done()
				mu.Lock()
				cond.Wait()
				woken++
				mu.Unlock()
			})
		}
		// Let all three park, then wake them one at a time.
		v.Sleep(time.Second)
		for i := 1; i <= 3; i++ {
			cond.Signal()
			v.Sleep(time.Second)
			mu.Lock()
			if woken != i {
				t.Errorf("after %d signals woken=%d", i, woken)
			}
			mu.Unlock()
		}
		wg.Wait()
	})
}

func TestVirtualCondBroadcast(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		var mu sync.Mutex
		cond := v.NewCond(&mu)
		ready := false
		wg := NewWaitGroup(v)
		for i := 0; i < 5; i++ {
			wg.Add(1)
			v.Go("w", func() {
				defer wg.Done()
				mu.Lock()
				for !ready {
					cond.Wait()
				}
				mu.Unlock()
			})
		}
		v.Sleep(time.Millisecond)
		mu.Lock()
		ready = true
		cond.Broadcast()
		mu.Unlock()
		wg.Wait()
	})
}

func TestVirtualWaitTimeoutExpires(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		var mu sync.Mutex
		cond := v.NewCond(&mu)
		mu.Lock()
		start := v.Now()
		ok := cond.WaitTimeout(3 * time.Second)
		elapsed := v.Now().Sub(start)
		mu.Unlock()
		if ok {
			t.Error("WaitTimeout reported signal, want timeout")
		}
		if elapsed != 3*time.Second {
			t.Errorf("timed wait took %v, want 3s", elapsed)
		}
	})
}

func TestVirtualWaitTimeoutSignaledEarly(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		var mu sync.Mutex
		cond := v.NewCond(&mu)
		v.Go("signaler", func() {
			v.Sleep(time.Second)
			cond.Signal()
		})
		mu.Lock()
		start := v.Now()
		ok := cond.WaitTimeout(time.Hour)
		elapsed := v.Now().Sub(start)
		mu.Unlock()
		if !ok {
			t.Error("WaitTimeout reported timeout, want signal")
		}
		if elapsed != time.Second {
			t.Errorf("signaled after %v, want 1s", elapsed)
		}
	})
}

func TestVirtualDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	v := NewVirtualDefault()
	v.Run(func() {
		var mu sync.Mutex
		cond := v.NewCond(&mu)
		mu.Lock()
		cond.Wait() // nobody will ever signal
	})
}

func TestVirtualDaemonsDoNotBlockRunExit(t *testing.T) {
	v := NewVirtualDefault()
	var mu sync.Mutex
	cond := v.NewCond(&mu)
	v.Run(func() {
		v.Go("daemon", func() {
			mu.Lock()
			cond.Wait() // parked forever, like a server accept loop
			mu.Unlock()
		})
		v.Sleep(time.Second) // give the daemon time to park
	})
	// Reaching here without a panic is the success condition.
	if v.Elapsed() != time.Second {
		t.Errorf("elapsed %v, want 1s", v.Elapsed())
	}
}

func TestMutexSerializesVirtualTime(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		m := NewMutex(v)
		wg := NewWaitGroup(v)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			v.Go("holder", func() {
				defer wg.Done()
				m.Lock()
				v.Sleep(time.Minute) // hold across simulated time
				m.Unlock()
			})
		}
		wg.Wait()
	})
	if v.Elapsed() != 4*time.Minute {
		t.Errorf("4 serialized 1m holds took %v, want 4m", v.Elapsed())
	}
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m := NewMutex(Real{})
	m.Unlock()
}

func TestSemaphoreWindow(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		// Window of 2 permits; 6 one-minute jobs => 3 minutes.
		sem := NewSemaphore(v, 2)
		wg := NewWaitGroup(v)
		for i := 0; i < 6; i++ {
			wg.Add(1)
			v.Go("job", func() {
				defer wg.Done()
				sem.Acquire(1)
				v.Sleep(time.Minute)
				sem.Release(1)
			})
		}
		wg.Wait()
	})
	if v.Elapsed() != 3*time.Minute {
		t.Errorf("elapsed %v, want 3m", v.Elapsed())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	s := NewSemaphore(Real{}, 2)
	if !s.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on fresh sem failed")
	}
	if s.TryAcquire(1) {
		t.Fatal("TryAcquire(1) on drained sem succeeded")
	}
	s.Release(1)
	if got := s.Available(); got != 1 {
		t.Fatalf("Available=%d want 1", got)
	}
	if !s.TryAcquire(1) {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestEventLatch(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		e := NewEvent(v)
		if e.IsSet() {
			t.Error("fresh event is set")
		}
		v.Go("setter", func() {
			v.Sleep(time.Second)
			e.Set()
		})
		e.Wait()
		if v.Elapsed() != time.Second {
			t.Errorf("woke at %v, want 1s", v.Elapsed())
		}
		e.Wait() // second wait returns immediately
		if !e.WaitTimeout(0) {
			t.Error("WaitTimeout on set event reported unset")
		}
	})
}

func TestEventWaitTimeout(t *testing.T) {
	v := NewVirtualDefault()
	v.Run(func() {
		e := NewEvent(v)
		if e.WaitTimeout(2 * time.Second) {
			t.Error("WaitTimeout reported set on never-set event")
		}
		if v.Elapsed() != 2*time.Second {
			t.Errorf("elapsed %v, want 2s", v.Elapsed())
		}
	})
}

func TestRealCondSignalAndTimeout(t *testing.T) {
	c := Real{}
	var mu sync.Mutex
	cond := c.NewCond(&mu)

	mu.Lock()
	if cond.WaitTimeout(5 * time.Millisecond) {
		t.Error("expected timeout")
	}
	mu.Unlock()

	done := make(chan struct{})
	go func() {
		mu.Lock()
		if !cond.WaitTimeout(5 * time.Second) {
			t.Error("expected signal before timeout")
		}
		mu.Unlock()
		close(done)
	}()
	// Signal until the waiter observes it (it may not have parked yet).
	for {
		cond.Signal()
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

func TestRealWaitGroup(t *testing.T) {
	c := Real{}
	wg := NewWaitGroup(c)
	var n int32
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		c.Go("w", func() {
			defer wg.Done()
			mu.Lock()
			n++
			mu.Unlock()
		})
	}
	wg.Wait()
	if n != 8 {
		t.Errorf("n=%d want 8", n)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	wg := NewWaitGroup(Real{})
	wg.Done()
}

// Property: for any set of sleep durations run concurrently, total virtual
// elapsed time equals the maximum duration; run sequentially it equals the
// sum.
func TestVirtualSleepAlgebra(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 50 {
			return true
		}
		durs := make([]time.Duration, len(raw))
		var sum, max time.Duration
		for i, r := range raw {
			durs[i] = time.Duration(r) * time.Millisecond
			sum += durs[i]
			if durs[i] > max {
				max = durs[i]
			}
		}

		vc := NewVirtualDefault()
		vc.Run(func() {
			wg := NewWaitGroup(vc)
			for _, d := range durs {
				wg.Add(1)
				d := d
				vc.Go("s", func() { defer wg.Done(); vc.Sleep(d) })
			}
			wg.Wait()
		})
		if vc.Elapsed() != max {
			t.Logf("concurrent: got %v want %v", vc.Elapsed(), max)
			return false
		}

		vs := NewVirtualDefault()
		vs.Run(func() {
			for _, d := range durs {
				vs.Sleep(d)
			}
		})
		if vs.Elapsed() != sum {
			t.Logf("sequential: got %v want %v", vs.Elapsed(), sum)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a clock-aware Mutex held for random durations serializes total
// elapsed time to the exact sum of hold times.
func TestMutexSerializationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 30 {
			return true
		}
		var sum time.Duration
		v := NewVirtualDefault()
		v.Run(func() {
			m := NewMutex(v)
			wg := NewWaitGroup(v)
			for _, r := range raw {
				d := time.Duration(r) * time.Millisecond
				sum += d
				wg.Add(1)
				v.Go("h", func() {
					defer wg.Done()
					m.Lock()
					v.Sleep(d)
					m.Unlock()
				})
			}
			wg.Wait()
		})
		return v.Elapsed() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: N timers with random deadlines fire in nondecreasing deadline
// order.
func TestTimerOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		durs := make([]time.Duration, n)
		for i := range durs {
			durs[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
		}
		var mu sync.Mutex
		var fired []time.Duration
		v := NewVirtualDefault()
		v.Run(func() {
			wg := NewWaitGroup(v)
			for _, d := range durs {
				wg.Add(1)
				d := d
				v.Go("t", func() {
					defer wg.Done()
					v.Sleep(d)
					mu.Lock()
					fired = append(fired, d)
					mu.Unlock()
				})
			}
			wg.Wait()
		})
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatalf("trial %d: fire order %v not sorted", trial, fired)
		}
	}
}

// Regression: a goroutine that parks in a Cond whose locker is a
// clock-aware Mutex briefly holds that Mutex after being counted as parked.
// A contender blocking on the Mutex in that window must not trigger the
// false deadlock panic (the contender will be woken by the imminent
// unlock). This hammers the window from TestRepeatedPersistentStream's
// failure mode.
func TestCondWaitUnlockRaceNoFalseDeadlock(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		v := NewVirtualDefault()
		v.Run(func() {
			m := NewMutex(v)
			cond := v.NewCond(m)
			waiting := false
			wg := NewWaitGroup(v)
			wg.Add(2)
			v.Go("waiter", func() {
				defer wg.Done()
				m.Lock()
				waiting = true
				cond.Wait() // releases m in the hazardous window
				m.Unlock()
			})
			v.Go("contender", func() {
				defer wg.Done()
				for {
					m.Lock() // may land exactly in the waiter's park window
					if waiting {
						cond.Signal()
						m.Unlock()
						return
					}
					m.Unlock()
					v.Sleep(time.Microsecond)
				}
			})
			wg.Wait()
		})
	}
}

// Regression: a Signal landing between the waiter's lock release and its
// park must not be lost.
func TestCondSignalBeforeParkNotLost(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		v := NewVirtualDefault()
		v.Run(func() {
			var mu sync.Mutex
			cond := v.NewCond(&mu)
			waiting, woken := false, false
			done := NewWaitGroup(v)
			done.Add(1)
			v.Go("waiter", func() {
				defer done.Done()
				mu.Lock()
				waiting = true
				cond.Wait()
				woken = true
				mu.Unlock()
			})
			v.Go("signaler", func() {
				for {
					mu.Lock()
					if waiting {
						// The waiter may be anywhere between registering and
						// parking; this Signal must reach it either way.
						cond.Signal()
						mu.Unlock()
						return
					}
					mu.Unlock()
					v.Sleep(time.Microsecond)
				}
			})
			done.Wait()
			if !woken {
				t.Fatalf("iter %d: signal lost", iter)
			}
		})
	}
}

// TestLiveCountsWhatRunLeft: after Run, Live counts the registered
// goroutines still parked (an untimed Cond wait, and a sleeper, since time
// stops when the root returns; one that returned does not count), and a
// goroutine still finishing the function that woke the root is waited for.
func TestLiveCountsWhatRunLeft(t *testing.T) {
	v := NewVirtualDefault()
	var mu sync.Mutex
	forever := v.NewCond(&mu)
	done := NewEvent(v)
	v.Run(func() {
		v.Go("parked", func() {
			mu.Lock()
			forever.Wait()
			mu.Unlock()
		})
		v.Go("sleeper", func() { v.Sleep(time.Hour) })
		v.Go("waker", func() { done.Set() }) // may still be returning when Run does
		done.Wait()
	})
	if n := v.Live(); n != 2 {
		t.Errorf("Live() = %d, want 2 (the goroutine parked forever and the sleeper)", n)
	}
	mu.Lock()
	forever.Signal()
	mu.Unlock()
	if n := v.Live(); n != 1 {
		t.Errorf("Live() after the last wake = %d, want 1 (the sleeper)", n)
	}
	if e := v.Elapsed(); e != 0 {
		t.Errorf("time moved to %v after the root returned", e)
	}
}
