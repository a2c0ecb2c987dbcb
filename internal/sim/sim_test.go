package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv(1)
	var got []int
	env.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	env.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	env.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	env.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if env.Now() != 3*time.Millisecond {
		t.Fatalf("clock = %v, want 3ms", env.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	env := NewEnv(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	env.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestProcSleep(t *testing.T) {
	env := NewEnv(1)
	var wake time.Duration
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		wake = env.Now()
	})
	env.Run()
	if wake != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
}

func TestNestedSleeps(t *testing.T) {
	env := NewEnv(1)
	var trace []string
	env.Go("a", func(p *Proc) {
		p.Sleep(time.Millisecond)
		trace = append(trace, "a1")
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "a2")
	})
	env.Go("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		trace = append(trace, "b1")
	})
	env.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEventWait(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	var woke time.Duration
	env.Go("waiter", func(p *Proc) {
		p.Wait(ev)
		woke = env.Now()
	})
	env.Schedule(7*time.Millisecond, ev.Signal)
	env.Run()
	if woke != 7*time.Millisecond {
		t.Fatalf("waiter woke at %v, want 7ms", woke)
	}
	if !ev.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	ev.Signal()
	done := false
	env.Go("w", func(p *Proc) {
		p.Wait(ev)
		done = true
	})
	env.Run()
	if !done {
		t.Fatal("wait on fired event blocked")
	}
	if env.Now() != 0 {
		t.Fatalf("time advanced to %v", env.Now())
	}
}

func TestSignalIdempotent(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	n := 0
	ev.OnFire(func() { n++ })
	ev.Signal()
	ev.Signal()
	env.Run()
	if n != 1 {
		t.Fatalf("OnFire ran %d times, want 1", n)
	}
}

func TestOnFireAfterFired(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	ev.Signal()
	n := 0
	ev.OnFire(func() { n++ })
	env.Run()
	if n != 1 {
		t.Fatal("OnFire on fired event did not run")
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource(1)
	var order []string
	worker := func(name string, hold time.Duration) func(*Proc) {
		return func(p *Proc) {
			r.Acquire(p)
			order = append(order, name+"+")
			p.Sleep(hold)
			order = append(order, name+"-")
			r.Release()
		}
	}
	env.Go("a", worker("a", 3*time.Millisecond))
	env.Go("b", worker("b", time.Millisecond))
	env.Run()
	want := []string{"a+", "a-", "b+", "b-"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if env.Now() != 4*time.Millisecond {
		t.Fatalf("end time %v, want 4ms", env.Now())
	}
}

func TestResourceFIFO(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource(1)
	var order []int
	env.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Millisecond)
		r.Release()
	})
	for i := 0; i < 5; i++ {
		i := i
		env.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // arrival order 0..4
			r.Acquire(p)
			order = append(order, i)
			r.Release()
		})
	}
	env.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("resource not FIFO: %v", order)
		}
	}
}

func TestResourceCapacity(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource(2)
	maxInUse := 0
	for i := 0; i < 6; i++ {
		env.Go("w", func(p *Proc) {
			r.Acquire(p)
			if r.InUse() > maxInUse {
				maxInUse = r.InUse()
			}
			p.Sleep(time.Millisecond)
			r.Release()
		})
	}
	env.Run()
	if maxInUse != 2 {
		t.Fatalf("max in use %d, want 2", maxInUse)
	}
	if env.Now() != 3*time.Millisecond {
		t.Fatalf("6 jobs at cap 2 took %v, want 3ms", env.Now())
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv(1)
	r := env.NewResource(1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on idle resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on held resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestProcDoneEvent(t *testing.T) {
	env := NewEnv(1)
	p1 := env.Go("worker", func(p *Proc) { p.Sleep(2 * time.Millisecond) })
	var joined time.Duration
	env.Go("joiner", func(p *Proc) {
		p.Wait(p1.Done())
		joined = env.Now()
	})
	env.Run()
	if joined != 2*time.Millisecond {
		t.Fatalf("join at %v, want 2ms", joined)
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	env.Schedule(time.Millisecond, func() { fired++ })
	env.Schedule(10*time.Millisecond, func() { fired++ })
	env.RunUntil(5 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if env.Now() != 5*time.Millisecond {
		t.Fatalf("now = %v, want 5ms", env.Now())
	}
	env.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestRunForAdvances(t *testing.T) {
	env := NewEnv(1)
	env.RunUntil(env.Now() + 3*time.Millisecond)
	env.RunUntil(env.Now() + 3*time.Millisecond)
	if env.Now() != 6*time.Millisecond {
		t.Fatalf("now = %v, want 6ms", env.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		env := NewEnv(42)
		var log []time.Duration
		r := env.NewResource(1)
		for i := 0; i < 20; i++ {
			env.Go("w", func(p *Proc) {
				d := time.Duration(env.Rand().Intn(1000)) * time.Microsecond
				p.Sleep(d)
				r.Acquire(p)
				p.Sleep(100 * time.Microsecond)
				log = append(log, env.Now())
				r.Release()
			})
		}
		env.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	env := NewEnv(1)
	env.Go("boom", func(p *Proc) { panic("kaboom") })
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate to Run")
		}
	}()
	env.Run()
}

func TestYieldLetsQueuedEventsRun(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Go("a", func(p *Proc) {
		env.Schedule(0, func() { order = append(order, "cb") })
		p.Yield()
		order = append(order, "a")
	})
	env.Run()
	if len(order) != 2 || order[0] != "cb" || order[1] != "a" {
		t.Fatalf("order = %v, want [cb a]", order)
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	env := NewEnv(1)
	env.Go("bad", func(p *Proc) { p.Sleep(-1) })
	defer func() {
		if recover() == nil {
			t.Fatal("negative sleep did not panic")
		}
	}()
	env.Run()
}

// A loop that waits again and again on one long-lived event re-arms it
// instead of replacing it: a signal → re-arm → wait cycle allocates nothing,
// for a process waiter and for an OnFire waiter alike.
func TestRearmedEventAllocatesNothing(t *testing.T) {
	env := NewEnv(1)
	procEv, fnEv := env.NewEvent(), env.NewEvent()
	wakes := 0
	env.Go("waiter", func(p *Proc) {
		for {
			procEv.Rearm()
			p.Wait(procEv)
			wakes++
		}
	})
	var onFire func()
	onFire = func() {
		wakes++
		fnEv.Rearm()
		fnEv.OnFire(onFire)
	}
	fnEv.OnFire(onFire)
	env.Run()
	allocs := testing.AllocsPerRun(100, func() {
		procEv.Signal()
		fnEv.Signal()
		env.Run()
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per cycle, want 0", allocs)
	}
	if wakes != 2*101 {
		t.Errorf("%d wake-ups over 101 cycles of two waiters", wakes)
	}

	// Both waiters are parked again: Rearm leaves an unfired event and its
	// waiters alone, Reset refuses to strand them.
	procEv.Rearm()
	procEv.Signal()
	env.Run()
	if wakes != 2*101+1 {
		t.Error("Rearm of an unfired event lost its parked waiter")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reset of an event with parked waiters did not panic")
		}
	}()
	fnEv.Reset()
}
