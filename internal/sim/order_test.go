package sim

import (
	"math/rand"
	"testing"
	"time"
)

// The ordering contract: events fire in (at, seq) order, seq handed out at
// push time — whatever mix of nowq, lanes and heap holds them. The tests
// below run one seeded script on the engine and on refEngine, which keeps a
// plain list and picks the least (at, seq) by linear search, and compare the
// visit logs.

type visit struct {
	id int
	at time.Duration
}

// scheduler is what the script needs of an engine.
type scheduler interface {
	Now() time.Duration
	Schedule(d time.Duration, fn func())
	RunUntil(t time.Duration)
	// sleeper starts a process that calls step(j) and then sleeps delays[j],
	// for each j in turn.
	sleeper(delays []time.Duration, step func(j int))
}

type refEngine struct {
	now     time.Duration
	seq     uint64
	pending []refEvent
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (r *refEngine) Now() time.Duration { return r.now }

func (r *refEngine) Schedule(d time.Duration, fn func()) {
	r.seq++
	r.pending = append(r.pending, refEvent{r.now + d, r.seq, fn})
}

func (r *refEngine) RunUntil(t time.Duration) {
	for {
		min := -1
		for i, ev := range r.pending {
			if ev.at <= t && (min < 0 || ev.at < r.pending[min].at || ev.at == r.pending[min].at && ev.seq < r.pending[min].seq) {
				min = i
			}
		}
		if min < 0 {
			break
		}
		ev := r.pending[min]
		r.pending = append(r.pending[:min], r.pending[min+1:]...)
		r.now = ev.at
		ev.fn()
	}
	if t > r.now {
		r.now = t
	}
}

// A process is a chain of events: Go and every Sleep push one wake-up.
func (r *refEngine) sleeper(delays []time.Duration, step func(j int)) {
	var wake func(j int) func()
	wake = func(j int) func() {
		return func() {
			step(j)
			if j < len(delays) {
				r.Schedule(delays[j], wake(j+1))
			}
		}
	}
	r.Schedule(0, wake(0))
}

type envEngine struct{ *Env }

func (e envEngine) sleeper(delays []time.Duration, step func(j int)) {
	e.Go("sleeper", func(p *Proc) {
		for j := 0; ; j++ {
			step(j)
			if j == len(delays) {
				return
			}
			p.Sleep(delays[j])
		}
	})
}

// orderingScript drives s with about events self-propagating events and
// returns the visit log. Every choice comes from one rng consumed in dispatch
// order, so two engines agree on the log only if they agree on the order.
func orderingScript(seed int64, events int, s scheduler, probe func()) []visit {
	rng := rand.New(rand.NewSource(seed))
	// Five delays carry most events (the shape of a 4 KiB read plus zero),
	// twelve more recur, the rest are one-offs. Every other burst ends with
	// a dozen events of falling due times, no two of which can share a lane:
	// more sorted runs than there are lanes, so some land on the heap.
	hot := []time.Duration{0, 350, 6000, 14628, 65000}
	var warm []time.Duration
	for i := 0; i < 12; i++ {
		warm = append(warm, time.Duration(1000+777*i))
	}
	pick := func() time.Duration {
		switch r := rng.Intn(20); {
		case r < 12:
			return hot[rng.Intn(len(hot))]
		case r < 18:
			return warm[rng.Intn(len(warm))]
		}
		return time.Duration(1 + rng.Intn(100000))
	}
	var log []visit
	id := 0
	var spawn func()
	spawn = func() {
		me := id
		id++
		s.Schedule(pick(), func() {
			log = append(log, visit{me, s.Now()})
			for k := rng.Intn(3); k > 0 && id < events; k-- {
				spawn()
			}
		})
	}
	for id < events {
		// A burst from outside the run loop, three processes sleeping through
		// it, then a run cut at an arbitrary nanosecond — often in the middle
		// of a same-instant burst — and at the end a run to quiescence.
		for k := 16 + rng.Intn(48); k > 0; k-- {
			spawn()
		}
		for k := 12 * rng.Intn(2); k > 0; k-- {
			me := id
			id++
			s.Schedule(time.Duration(k)*20*time.Microsecond, func() { log = append(log, visit{me, s.Now()}) })
		}
		for k := 0; k < 3; k++ {
			delays := make([]time.Duration, 1+rng.Intn(6))
			for j := range delays {
				delays[j] = pick()
			}
			me := id
			id++
			s.sleeper(delays, func(j int) { log = append(log, visit{-(me*100 + j), s.Now()}) })
		}
		cut := s.Now() + time.Duration(rng.Intn(400000))
		if rng.Intn(3) == 0 {
			cut = s.Now() + hot[1+rng.Intn(4)]*time.Duration(1+rng.Intn(3))
		}
		s.RunUntil(cut)
		log = append(log, visit{0, s.Now()})
		probe()
	}
	s.RunUntil(time.Hour)
	return append(log, visit{0, s.Now()})
}

func TestDispatchOrderMatchesReference(t *testing.T) {
	var overflowed, released bool
	for seed := int64(1); seed <= 12; seed++ {
		want := orderingScript(seed, 4000, &refEngine{}, func() {})
		e := NewEnv(seed)
		got := orderingScript(seed, 4000, envEngine{e}, func() {
			overflowed = overflowed || e.nlive == numLanes && len(e.queue.a) > 0
			released = released || e.nlive < numLanes && e.seq > 1000
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d visits, reference has %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: visit %d is event %d at %v, reference has event %d at %v",
					seed, i, got[i].id, got[i].at, want[i].id, want[i].at)
			}
		}
	}
	if !overflowed || !released {
		t.Fatalf("script no longer covers lane overflow (%v) or release (%v)", overflowed, released)
	}
}

// Schedule → fire allocates nothing once the rings and the heap have grown:
// through a lane, through the heap (an event that extends none of eight busy
// lanes), and for the closure form as well as the fn(arg) form.
func TestScheduleFireAllocatesNothing(t *testing.T) {
	env := NewEnv(1)
	fired := 0
	fn := func() { fired++ }
	fnArg := func(any) { fired++ }
	check := func(path string, d time.Duration, wantHeap bool) {
		t.Helper()
		before := fired
		allocs := testing.AllocsPerRun(100, func() {
			env.Schedule(d, fn)
			env.ScheduleArg(d, fnArg, env)
			if onHeap := len(env.queue.a) == 2; onHeap != wantHeap {
				t.Fatalf("%s: events on the heap = %v, want %v", path, onHeap, wantHeap)
			}
			env.RunFor(d)
		})
		if allocs != 0 || fired != before+202 {
			t.Fatalf("%s: %.1f allocs per schedule+fire pair, %d fired; want 0 and 202", path, allocs, fired-before)
		}
	}
	check("lane", 6*time.Microsecond, false)
	for i := 0; i < numLanes; i++ {
		env.Schedule(time.Hour-time.Duration(i), fn) // falling due times: a lane each
	}
	check("heap", 6*time.Microsecond, true)
}
