package blockdev

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// fakeDev is a scripted device for exercising the queue core: a geometry
// and an issue function that completes reads and writes after a fixed
// latency. Tests that need another issue path script their own over its
// geometry.
type fakeDev struct {
	lat    time.Duration
	reads  int
	writes int
}

func (d *fakeDev) SectorSize() int { return 512 }
func (d *fakeDev) Capacity() int64 { return 1 << 20 }

func (d *fakeDev) issue(env *sim.Env) IssueFunc {
	var fin func(any) // bound to done on the first call, so no closure per request
	return func(req *Request, done func(*Request)) {
		if fin == nil {
			fin = func(a any) { done(a.(*Request)) }
		}
		lat := time.Duration(0)
		switch req.Op {
		case ReqRead:
			lat = d.lat
			d.reads++
		case ReqWrite:
			lat = d.lat
			d.writes++
		}
		env.ScheduleArg(lat, fin, req)
	}
}

func read(off int64, fin func(*Request)) *Request {
	return &Request{Op: ReqRead, Off: off, Length: 512, OnComplete: fin}
}

func TestQueueDepthBoundsDispatch(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &fakeDev{}
	active, maxActive := 0, 0
	q := NewQueue(env, dev, 2, func(req *Request, done func(*Request)) {
		active++
		if active > maxActive {
			maxActive = active
		}
		env.Schedule(10*time.Microsecond, func() {
			active--
			done(req)
		})
	})
	completed := 0
	env.Go("main", func(p *sim.Proc) {
		reqs := make([]*Request, 10)
		for i := range reqs {
			reqs[i] = read(int64(i)*512, func(*Request) { completed++ })
		}
		q.Submit(reqs...)
		if got := q.InFlight(); got != 10 {
			t.Errorf("InFlight after submit = %d, want 10", got)
		}
		q.Drain(p)
	})
	env.Run()
	if completed != 10 {
		t.Fatalf("completed = %d, want 10", completed)
	}
	if maxActive != 2 {
		t.Fatalf("max concurrent dispatch = %d, want 2 (queue depth)", maxActive)
	}
	if q.InFlight() != 0 {
		t.Fatalf("InFlight after drain = %d", q.InFlight())
	}
}

func TestCompletionsOutOfOrderUnderQD(t *testing.T) {
	// Requests complete in reverse submission order when latencies invert;
	// each completes exactly once with Submitted <= Done.
	env := sim.NewEnv(1)
	dev := &fakeDev{}
	q := NewQueue(env, dev, 8, func(req *Request, done func(*Request)) {
		env.Schedule(time.Duration(8-req.Off/512)*10*time.Microsecond, func() { done(req) })
	})
	var order []int64
	counts := map[int64]int{}
	env.Go("main", func(p *sim.Proc) {
		var reqs []*Request
		for i := 0; i < 8; i++ {
			reqs = append(reqs, read(int64(i)*512, func(r *Request) {
				order = append(order, r.Off/512)
				counts[r.Off/512]++
				if r.Done < r.Submitted {
					t.Errorf("req %d: Done %v before Submitted %v", r.Off/512, r.Done, r.Submitted)
				}
			}))
		}
		q.Submit(reqs...)
		q.Drain(p)
	})
	env.Run()
	if len(order) != 8 {
		t.Fatalf("completions = %d, want 8", len(order))
	}
	for i, id := range order {
		if id != int64(7-i) {
			t.Fatalf("completion order %v, want reverse submission order", order)
		}
		if counts[id] != 1 {
			t.Fatalf("request %d completed %d times", id, counts[id])
		}
	}
}

func TestFlushBarrierOrdering(t *testing.T) {
	// A flush must complete after every earlier request and before any
	// later one, regardless of latencies.
	env := sim.NewEnv(1)
	dev := &fakeDev{}
	q := NewQueue(env, dev, 8, func(req *Request, done func(*Request)) {
		lat := time.Microsecond
		if req.Op == ReqWrite {
			lat = 50 * time.Microsecond // slow writes ahead of the barrier
		}
		env.Schedule(lat, func() { done(req) })
	})
	var seq []string
	note := func(tag string) func(*Request) {
		return func(*Request) { seq = append(seq, tag) }
	}
	env.Go("main", func(p *sim.Proc) {
		q.Submit(
			&Request{Op: ReqWrite, Off: 0, Length: 512, OnComplete: note("w0")},
			&Request{Op: ReqWrite, Off: 512, Length: 512, OnComplete: note("w1")},
			&Request{Op: ReqFlush, OnComplete: note("flush")},
			&Request{Op: ReqRead, Off: 0, Length: 512, OnComplete: note("r0")},
			&Request{Op: ReqRead, Off: 512, Length: 512, OnComplete: note("r1")},
		)
		q.Drain(p)
	})
	env.Run()
	want := []string{"w0", "w1", "flush", "r0", "r1"}
	if len(seq) != len(want) {
		t.Fatalf("completions %v, want %v", seq, want)
	}
	pos := map[string]int{}
	for i, s := range seq {
		pos[s] = i
	}
	if pos["flush"] < pos["w0"] || pos["flush"] < pos["w1"] {
		t.Fatalf("flush completed before earlier writes: %v", seq)
	}
	if pos["flush"] > pos["r0"] || pos["flush"] > pos["r1"] {
		t.Fatalf("reads behind the barrier completed before it: %v", seq)
	}
}

func TestValidationErrorsCompleteAsync(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &fakeDev{}
	issued := 0
	q := NewQueue(env, dev, 2, func(req *Request, done func(*Request)) {
		issued++
		env.Schedule(0, func() { done(req) })
	})
	var oor, align error
	env.Go("main", func(p *sim.Proc) {
		q.Submit(
			&Request{Op: ReqRead, Off: dev.Capacity(), Length: 512,
				OnComplete: func(r *Request) { oor = r.Err }},
			&Request{Op: ReqWrite, Off: 100, Length: 512,
				OnComplete: func(r *Request) { align = r.Err }},
		)
		q.Drain(p)
	})
	env.Run()
	if !errors.Is(oor, ErrOutOfRange) {
		t.Fatalf("out-of-range read err = %v, want ErrOutOfRange", oor)
	}
	if !errors.Is(align, ErrAlignment) {
		t.Fatalf("misaligned write err = %v, want ErrAlignment", align)
	}
	if issued != 0 {
		t.Fatalf("invalid requests reached the device (%d issued)", issued)
	}
}

func TestSyncAdapterRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &fakeDev{lat: 5 * time.Microsecond}
	sa := NewSyncAdapter(env, dev, dev.issue(env))
	env.Go("main", func(p *sim.Proc) {
		start := env.Now()
		if err := sa.Write(p, 0, nil, 512); err != nil {
			t.Errorf("write: %v", err)
		}
		if env.Now()-start != 5*time.Microsecond {
			t.Errorf("write blocked %v, want device latency 5µs", env.Now()-start)
		}
		if err := sa.Read(p, 0, nil, 512); err != nil {
			t.Errorf("read: %v", err)
		}
		if err := sa.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
		if err := sa.Trim(p, 0, 512); err != nil {
			t.Errorf("trim: %v", err)
		}
		if !errors.Is(sa.Read(p, dev.Capacity(), nil, 512), ErrOutOfRange) {
			t.Error("adapter did not surface validation error")
		}
	})
	env.Run()
	if dev.reads != 1 || dev.writes != 1 {
		t.Fatalf("device saw reads=%d writes=%d, want 1/1", dev.reads, dev.writes)
	}
}

func TestDrainOnIdleQueueReturns(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &fakeDev{}
	q := NewQueue(env, dev, 1, dev.issue(env))
	ran := false
	env.Go("main", func(p *sim.Proc) {
		q.Drain(p)
		ran = true
	})
	env.Run()
	if !ran {
		t.Fatal("Drain on an idle queue did not return")
	}
}

// A queue re-arms one drain event for every drain, so submit-then-drain
// cycles allocate nothing once warm.
func TestDrainCyclesAllocateNothing(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &fakeDev{lat: time.Microsecond}
	q := NewQueue(env, dev, 4, dev.issue(env))
	r := read(0, nil)
	const warm, measured = 64, 1000
	var before, after runtime.MemStats
	env.Go("drainer", func(p *sim.Proc) {
		for i := 0; i < warm+measured; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			q.Submit(r)
			q.Drain(p)
		}
		runtime.ReadMemStats(&after)
	})
	env.Run()
	if dev.reads != warm+measured {
		t.Fatalf("device saw %d reads, want %d", dev.reads, warm+measured)
	}
	// Runtime noise stays well below one allocation per cycle.
	if allocs := after.Mallocs - before.Mallocs; allocs > measured/10 {
		t.Fatalf("%d drain cycles allocated %d objects", measured, allocs)
	}
}
