package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// A blocking call of a running process — Sleep, or Wait on a re-armed event —
// is an event plus two coroutine switches and allocates nothing.
func TestProcSwitchAllocatesNothing(t *testing.T) {
	env := NewEnv(1)
	ev := env.NewEvent()
	rounds := 0
	env.Go("switcher", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			ev.Rearm()
			p.Wait(ev)
			rounds++
		}
	})
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		env.RunUntil(env.Now() + time.Microsecond) // through the Sleep, parked in Wait
		ev.Signal()
		env.RunUntil(env.Now()) // through the Wait, parked in Sleep
	})
	if rounds != runs+1 { // AllocsPerRun makes one warm-up call
		t.Fatalf("process made %d round trips, want %d", rounds, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("a Sleep and a Wait round trip allocate %v objects, want 0", allocs)
	}
}

// A process borrows a carrier from its first resume to its function's
// return: once the Env has as many carriers as processes were ever alive at
// once, Go allocates the Proc and nothing else, and starts no goroutine.
// (With every process finished, env.idle.Len() is the number of carriers the
// Env ever made.)
func TestSpawnReusesCarrier(t *testing.T) {
	env := NewEnv(1)
	ran := 0
	fn := func(p *Proc) { ran++ }
	env.Go("warm-up", fn)
	env.Run()
	before := runtime.NumGoroutine()
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		env.Go("spawned", fn)
		env.Run()
	})
	if ran != runs+2 {
		t.Fatalf("%d processes ran, want %d", ran, runs+2)
	}
	if allocs > 1 {
		t.Fatalf("a spawn to completion allocates %v objects, want the Proc alone", allocs)
	}
	if n := runtime.NumGoroutine(); n > before || env.idle.Len() != 1 {
		t.Fatalf("%d sequential spawns: goroutines %d -> %d, %d carriers; want no growth, 1 carrier", runs, before, n, env.idle.Len())
	}

	// Eight alive at once take eight carriers; the next eight reuse them.
	for batch := 1; batch <= 2; batch++ {
		gate, finished := env.NewEvent(), 0
		for i := 0; i < 8; i++ {
			env.Go("parked", func(p *Proc) {
				p.Wait(gate)
				finished++
			})
		}
		env.Run()
		if env.idle.Len() != 0 {
			t.Fatalf("batch %d: %d carriers idle beside 8 parked processes", batch, env.idle.Len())
		}
		gate.Signal()
		env.Run()
		if finished != 8 || env.idle.Len() != 8 {
			t.Fatalf("batch %d: %d of 8 processes finished on %d carriers, want 8 on 8", batch, finished, env.idle.Len())
		}
	}
	if n := runtime.NumGoroutine(); n > before+7 {
		t.Fatalf("two batches of 8: goroutines %d -> %d, want at most +7", before, n)
	}
}

func crashingProcess(p *Proc) {
	p.Sleep(time.Microsecond)
	panic("kaboom")
}

// A panic in a process surfaces from Run with the process's name, value and
// stack, and costs the Env nothing: the carrier it ran on serves the next
// process.
func TestProcPanicLeavesEnvUsable(t *testing.T) {
	env := NewEnv(1)
	env.Go("boom", crashingProcess)
	func() {
		defer func() {
			pp, ok := recover().(ProcPanic)
			if !ok || pp.Proc != "boom" || pp.Value != "kaboom" {
				t.Fatalf("Run panicked with %#v, want ProcPanic{boom, kaboom}", pp)
			}
			if !strings.Contains(string(pp.Stack), "crashingProcess") {
				t.Errorf("stack does not name the process's function:\n%s", pp.Stack)
			}
			first, rest, _ := strings.Cut(pp.Error(), "\n")
			if first != `sim: process "boom" panicked: kaboom` || rest != string(pp.Stack) {
				t.Errorf("Error() = %q, want the one-line message, then the stack", pp.Error())
			}
		}()
		env.Run()
	}()

	finished := false
	p := env.Go("after", func(p *Proc) {
		p.Sleep(time.Microsecond)
		finished = true
	})
	env.Run()
	if !finished || !p.Done().Fired() {
		t.Fatal("a process started after a panic did not run to completion")
	}
	if env.idle.Len() != 1 {
		t.Fatalf("%d carriers after two processes, want 1: the panicked process's was not reused", env.idle.Len())
	}
}

// runtime.Goexit in a process (t.FailNow, t.Fatal) ends the goroutine that
// called Run too: the simulation does not run on past it.
func TestGoexitInProcessEndsRun(t *testing.T) {
	var ranOn, returned, deferred bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { deferred = true }()
		env := NewEnv(1)
		env.Go("fatal", func(p *Proc) {
			p.Sleep(time.Microsecond)
			runtime.Goexit()
		})
		env.Schedule(time.Second, func() { ranOn = true })
		env.Run()
		returned = true
	}()
	<-done
	if ranOn || returned {
		t.Fatalf("after Goexit in a process: later event ran = %v, Run returned = %v; want neither", ranOn, returned)
	}
	if !deferred {
		t.Fatal("Run's goroutine ended without running its deferred calls")
	}
}
