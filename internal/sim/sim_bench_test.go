package sim

import (
	"testing"
	"time"
)

// BenchmarkSimEngine exercises the engine primitives the device fast path
// is built from. These are the numbers the event-queue and continuation
// work is tuned against; CI records them in BENCH_sim.json.

// BenchmarkSimEngine/schedule: raw event-queue throughput — push and pop
// with a live heap of pending events, the hot loop of every simulation.
func BenchmarkSimEngine(b *testing.B) {
	b.Run("schedule", func(b *testing.B) {
		env := NewEnv(1)
		var fn func()
		n := 0
		fn = func() {
			if n < b.N {
				n++
				env.Schedule(time.Microsecond, fn)
			}
		}
		// Keep a backlog so heap operations see realistic depth.
		for i := 0; i < 64; i++ {
			d := time.Duration(i) * time.Microsecond
			env.Schedule(d, func() {})
		}
		env.Schedule(0, fn)
		b.ReportAllocs()
		b.ResetTimer()
		env.Run()
	})

	// timer-chains is the timed-event traffic of a 4 KiB read at QD 64: 64
	// chains, each rescheduling itself over the read's four delays (host
	// overhead, command overhead, array read, sector transfer), so every pop
	// picks among a few dozen pending events of four distinct delays.
	// timer-mixed makes every tenth delay a one-off, which lands between the
	// runs of the regular delays: lanes open and drain, runs of mixed delays
	// form, and the heap takes what fits none of them.
	for _, mixed := range []bool{false, true} {
		name := "timer-chains"
		if mixed {
			name = "timer-mixed"
		}
		b.Run(name, func(b *testing.B) {
			env := NewEnv(1)
			delays := [4]time.Duration{350, 6 * time.Microsecond, 65 * time.Microsecond, 14628}
			n := 0
			var hop func(any)
			hop = func(a any) {
				if n >= b.N {
					return
				}
				n++
				k := a.(int)
				d := delays[k&3]
				if mixed && n%10 == 0 {
					d = time.Duration(1 + env.Rand().Intn(100000))
				}
				env.ScheduleArg(d, hop, (k+1)&3) // small ints box without allocating
			}
			for c := 0; c < 64; c++ {
				env.ScheduleArg(time.Duration(c)*time.Microsecond, hop, c&3)
			}
			b.ReportAllocs()
			b.ResetTimer()
			env.Run()
		})
	}

	b.Run("resource-chain", func(b *testing.B) {
		env := NewEnv(1)
		r := env.NewResource(1)
		n := 0
		var hold func()
		hold = func() {
			env.Schedule(time.Microsecond, func() {
				r.Release()
			})
			if n < b.N {
				n++
				r.AcquireFn(hold)
			}
		}
		r.AcquireFn(hold)
		b.ReportAllocs()
		b.ResetTimer()
		env.Run()
	})

	b.Run("event-onfire", func(b *testing.B) {
		env := NewEnv(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := env.NewEvent()
			ev.OnFire(func() {})
			env.Schedule(time.Microsecond, ev.Signal)
			env.RunUntil(env.Now() + time.Microsecond)
		}
	})
}

// BenchmarkProcSwitch is the cost of process-shaped code over callback-shaped
// code. sleep: one blocking call of a running process — the event's push and
// pop plus the two coroutine switches (out in pause, back in resumeProc).
// spawn: one process from Go to its function's return, on a reused carrier.
func BenchmarkProcSwitch(b *testing.B) {
	b.Run("sleep", func(b *testing.B) {
		env := NewEnv(1)
		env.Go("bench", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		env.Run()
	})

	b.Run("spawn", func(b *testing.B) {
		env := NewEnv(1)
		fn := func(p *Proc) {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Go("bench", fn)
			env.Run()
		}
	})
}
