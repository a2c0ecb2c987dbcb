// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine replaces wall-clock time with a virtual clock so that device
// models can expose microsecond-accurate latency behaviour while running as
// fast as the host CPU allows. Simulated activities are modelled either as
// scheduled callbacks or as processes: coroutines that run one at a time and
// hand control back to the scheduler whenever they block on time (Sleep),
// on a condition (Event), or on a contended Resource.
//
// The callback form is the engine's fast path: a continuation scheduled
// with Schedule, woken by Event.OnFire, or granted a unit through
// Resource.AcquireFn costs one event-queue entry and no context switch.
// The process form adds two coroutine switches per block/resume (iter.Pull's
// next and yield: a direct switch between two goroutines, no channel and no
// trip through the Go scheduler) and is what kernel-thread-shaped code —
// lane writers, GC movers, lsmdb's threads, workloads and tests — is
// written in, where straight-line blocking code is worth that. A process
// borrows its coroutine from a per-Env pool of carriers, so starting one
// costs one allocation and no goroutine. Both forms share the same wait
// queues (FIFO, the ring every queue of the stack is), so they interleave
// deterministically.
//
// Determinism: at most one process runs at any instant, events that fire at
// the same virtual time execute in schedule order, and all randomness is
// drawn from per-Env seeded sources. Two runs with the same seed produce
// identical traces.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"time"
)

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; call NewEnv.
//
// Pending events live in three places that merge to one (at, seq) order —
// the zero-delay bucket nowq, the sorted-run lanes and the general heap;
// DESIGN.md §"Event engine" has the argument.
type Env struct {
	now time.Duration
	seq uint64

	// nowq is a FIFO of events scheduled for exactly the current instant.
	// Zero-delay scheduling (completion callbacks, event signals, continuation
	// kicks) dominates hot datapaths; routing those around the heap turns a
	// log-time sift per event into two index bumps. Ordering stays exact:
	// every timed entry stamped at == now was pushed at an earlier instant and
	// so carries a smaller seq than any nowq entry, and the bucket drains
	// before the clock advances, so the merged pop order is identical to a
	// single (at, seq) heap.
	nowq     []queued
	nowqHead int

	// Timed events. Each lane is a FIFO ring holding a sorted run: a push
	// joins the lane whose newest entry is latest among those not after it,
	// so every ring stays in (at, seq) order without sorting. A device model
	// schedules almost everything at a handful of fixed delays (command
	// overhead, array read, sector transfer); for a fixed delay now+d grows
	// with every push, so each delay in flight settles into a run of its own.
	// lanes[nlive:] are drained and cost nothing. queue, the general heap,
	// takes the entry that fits no lane when all eight hold entries. timedAt
	// and timedSrc cache the least (at, seq) over the lane heads and the heap
	// top — a push can only lower them, a pop rescans.
	lanes    [numLanes]lane
	nlive    int
	queue    eventQueue
	timedAt  time.Duration // never when no timed event is pending
	timedSrc int           // lane index, or srcHeap

	// idle holds the carriers no process is bound to; resumeProc binds the
	// most recently freed one.
	idle Pool[*carrier]

	rng      *rand.Rand
	panicked *ProcPanic // set by the carrier whose process panicked, raised by resumeProc
	spawns   int64      // total Go calls, for asserting goroutine-free fast paths
}

const (
	numLanes = 8
	srcHeap  = -1
	// never is later than any event time; Run's bound, 1<<62-1, is below it.
	never = time.Duration(1<<63 - 1)
)

// NewEnv returns an environment whose clock starts at zero and whose random
// source is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:     rand.New(rand.NewSource(seed)),
		timedAt: never,
		idle:    Pool[*carrier]{New: newCarrier},
	}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic random source. It must only
// be used from simulation context (callbacks or processes).
func (e *Env) Rand() *rand.Rand { return e.rng }

// Spawns returns the total number of processes started with Go over the
// environment's lifetime. Steady-state datapaths are expected to leave it
// untouched; tests assert this to guard the goroutine-free fast path.
func (e *Env) Spawns() int64 { return e.spawns }

// Schedule runs fn at the current virtual time plus d. Scheduling with d < 0
// panics. fn runs in scheduler context and must not block.
func (e *Env) Schedule(d time.Duration, fn func()) {
	e.after(d, callFunc, fn)
}

// ScheduleArg runs fn(arg) at the current virtual time plus d. It is the
// allocation-free variant of Schedule for hot paths: fn is typically a
// long-lived function value and arg the per-event state, so no closure is
// created per call. Scheduling with d < 0 panics.
func (e *Env) ScheduleArg(d time.Duration, fn func(any), arg any) {
	e.after(d, fn, arg)
}

// queued is one pending event: fn(arg) runs at virtual time at; seq, handed
// out at push time, orders events due at the same instant. Every kind of
// event has this one form. A plain closure rides as the argument of
// callFunc and a process wake-up as the argument of resumeProc (func values
// and pointers fit an interface word, so neither conversion allocates).
type queued struct {
	at  time.Duration
	seq uint64
	fn  func(any)
	arg any
}

func callFunc(fn any) { fn.(func())() }

func (q *queued) before(o *queued) bool {
	if q.at != o.at {
		return q.at < o.at
	}
	return q.seq < o.seq
}

// lane is a FIFO ring of pending events in (at, seq) order. The keys the
// scans need — the head's, and the at of the newest entry — are kept in the
// lane itself, so a scan reads one cache line per lane and never the rings.
type lane struct {
	at   time.Duration // buf[head].at; never when drained
	seq  uint64        // buf[head].seq
	tail time.Duration // at of the newest entry; -1 when drained
	buf  []queued      // len is zero or a power of two
	head int
	n    int
}

// push appends a slot to the ring for the caller to fill in.
func (l *lane) push() *queued {
	if l.n == len(l.buf) {
		grown := make([]queued, max(16, 2*len(l.buf)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
		}
		l.buf, l.head = grown, 0
	}
	l.n++
	return &l.buf[(l.head+l.n-1)&(len(l.buf)-1)]
}

// eventQueue is a 4-ary min-heap ordered by (at, seq). The wider fan-out
// halves the tree depth of the binary heap it replaced: pops touch fewer
// cache lines and pushes in the common append-at-the-end case compare
// against a quarter as many ancestors. Ordering is a strict total order
// (seq is unique), so the pop sequence is independent of heap shape and
// the engine stays deterministic.
type eventQueue struct {
	a []queued
}

func (q *eventQueue) push(v queued) {
	a := append(q.a, v)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !a[i].before(&a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
	q.a = a
}

func (q *eventQueue) pop() queued {
	a := q.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = queued{} // release closure references
	a = a[:n]
	q.a = a
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Pick the smallest of up to four children.
		min := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if a[j].before(&a[min]) {
				min = j
			}
		}
		if !a[min].before(&a[i]) {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}

// after queues fn(arg) for now+d.
func (e *Env) after(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(e.now+d, fn, arg)
}

// push queues fn(arg) at the absolute time at >= now: on the zero-delay
// bucket, on the lane it extends best, or else on the heap. The record is
// written field by field into its slot; building it first and copying it in
// costs a store-forwarding stall on every event.
func (e *Env) push(at time.Duration, fn func(any), arg any) {
	e.seq++
	var slot *queued
	if at == e.now {
		e.nowq = append(e.nowq, queued{})
		slot = &e.nowq[len(e.nowq)-1]
	} else {
		// Best fit: the latest tail not after at. Joining that lane leaves
		// the lanes with earlier tails open to earlier events, which keeps
		// the number of runs — lanes in use — as small as it can be. A
		// drained lane (tail -1) fits anything and is preferred to nothing.
		i, fit := srcHeap, time.Duration(-2)
		for j := 0; j < e.nlive; j++ {
			if t := e.lanes[j].tail; t <= at && t > fit {
				i, fit = j, t
			}
		}
		if i == srcHeap && e.nlive < numLanes {
			i = e.nlive
			e.nlive++
		}
		// Equal at keeps the cached source: its entry was pushed first.
		if at < e.timedAt {
			e.timedAt, e.timedSrc = at, i
		}
		if i == srcHeap {
			e.queue.push(queued{at: at, seq: e.seq, fn: fn, arg: arg})
			return
		}
		l := &e.lanes[i]
		if l.n == 0 {
			l.at, l.seq = at, e.seq
		}
		l.tail = at
		slot = l.push()
	}
	slot.at, slot.seq, slot.fn, slot.arg = at, e.seq, fn, arg
}

// popTimed removes the least timed event — timedSrc's head — advances the
// clock to it and finds the next one.
func (e *Env) popTimed() (fn func(any), arg any) {
	var at time.Duration
	if e.timedSrc == srcHeap {
		q := e.queue.pop()
		at, fn, arg = q.at, q.fn, q.arg
	} else {
		l := &e.lanes[e.timedSrc]
		slot := &l.buf[l.head]
		at, fn, arg = slot.at, slot.fn, slot.arg
		slot.fn, slot.arg = nil, nil // release closure references
		l.head = (l.head + 1) & (len(l.buf) - 1)
		l.n--
		if l.n > 0 {
			l.at, l.seq = l.buf[l.head].at, l.buf[l.head].seq
		} else {
			// Drained: it loses every comparison below and any event fits it.
			l.at, l.tail = never, -1
			for e.nlive > 0 && e.lanes[e.nlive-1].n == 0 {
				e.nlive--
			}
		}
	}
	if at > e.now {
		e.now = at
	}
	next, seq, src := never, uint64(0), srcHeap
	if len(e.queue.a) > 0 {
		next, seq = e.queue.a[0].at, e.queue.a[0].seq
	}
	for i := 0; i < e.nlive; i++ {
		if l := &e.lanes[i]; l.at < next || l.at == next && l.seq < seq {
			next, seq, src = l.at, l.seq, i
		}
	}
	e.timedAt, e.timedSrc = next, src
	return fn, arg
}

// runThrough executes, in (at, seq) order, every pending event due at or
// before limit. The clock follows the events and is left at the last one
// executed, never advanced to limit.
func (e *Env) runThrough(limit time.Duration) {
	for {
		var fn func(any)
		var arg any
		if e.nowqHead < len(e.nowq) && e.now <= limit && e.timedAt > e.now {
			// Timed entries due now predate every nowq entry (smaller seq)
			// and have run; drain the bucket.
			slot := &e.nowq[e.nowqHead]
			fn, arg = slot.fn, slot.arg
			slot.fn, slot.arg = nil, nil // release closure references
			e.nowqHead++
			if e.nowqHead == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowqHead = 0
			}
		} else if e.timedAt <= limit {
			fn, arg = e.popTimed()
		} else {
			return
		}
		fn(arg)
	}
}

// ProcPanic is what Run panics with when a process panicked: the process's
// own panic value, kept as it was so that a caller who recovers can tell a
// failure it raised itself from a bug, and the process's stack at the panic
// (the trace the runtime prints for a ProcPanic is the scheduler's).
type ProcPanic struct {
	Proc  string
	Value any
	Stack []byte
}

func (pp ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Run executes queued events until the queue drains. It panics with a
// ProcPanic if a process panicked during the run.
func (e *Env) Run() {
	e.RunUntil(1<<62 - 1)
}

// RunUntil executes queued events with timestamps <= t, then advances the
// clock to t (if t is later than the last event executed).
func (e *Env) RunUntil(t time.Duration) {
	e.runThrough(t)
	if t > e.now && t < 1<<62-1 {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Env) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// resumeProc is the event form of a process wake-up: switch to the
// process's coroutine and return when it blocks again or terminates. A
// process gets its carrier here, at its first resume, not in Go: a batch of
// processes started together that each finish without outliving the next
// one's start then shares one carrier.
func resumeProc(arg any) {
	p := arg.(*Proc)
	if p.done {
		return
	}
	e := p.env
	c := p.carrier
	if c == nil {
		c = e.idle.Get()
		c.p, p.carrier = p, c
	}
	c.next()
	if pp := e.panicked; pp != nil {
		e.panicked = nil
		panic(*pp)
	}
}

// carrier is a coroutine that runs one process after another. iter.Pull
// costs some ten allocations and a goroutine; a carrier pays them once and a
// process only borrows it, from its first resume until its function
// returns. Which idle carrier a process gets decides nothing but which host
// stack it runs on, so the idle list's order cannot reach a simulated
// result.
//
// Carriers are never stopped: one that is idle, or parked under a process
// that will not be woken again, keeps its goroutine for the life of the
// program, as a parked process's goroutine always did. An idle carrier
// refers to no Env.
type carrier struct {
	next  func() (struct{}, bool) // scheduler side: switch to the coroutine
	yield func(struct{}) bool     // coroutine side: switch back
	p     *Proc                   // bound process, nil while idle
}

func newCarrier() *carrier {
	c := new(carrier)
	c.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			e := c.p.env
			c.run()
			e.idle.Put(c)
			yield(struct{}{})
		}
	})
	return c
}

// run executes the bound process to its end — return, panic or Goexit — and
// unbinds it.
func (c *carrier) run() {
	p := c.p
	defer func() {
		if r := recover(); r != nil {
			p.env.panicked = &ProcPanic{p.name, r, debug.Stack()}
		}
		c.p, p.carrier, p.fn = nil, nil, nil
		p.done = true
		p.doneEv.Signal()
	}()
	p.fn(p)
}

// Proc is a simulation process: a coroutine interleaved with the scheduler.
// All Proc methods must be called from the process's own function.
type Proc struct {
	env     *Env
	name    string
	fn      func(p *Proc)
	carrier *carrier // nil before the first resume and after fn returns
	done    bool
	doneEv  Event
}

// Go starts a new process executing fn. The process begins at the current
// virtual time, after already-queued events for this instant.
//
// fn runs on a goroutine of its own, but never concurrently with the
// scheduler or another process. A panic in it surfaces from Run as a
// ProcPanic. A runtime.Goexit in it (t.FailNow, t.Fatal, t.Skip) ends the
// goroutine that called Run as well, after that goroutine's deferred calls:
// the simulation does not run on past a fatal test failure, and the Env is
// not usable afterwards.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	e.spawns++
	p := &Proc{env: e, name: name, fn: fn, doneEv: Event{env: e}}
	e.after(0, resumeProc, p)
	return p
}

// Name returns the process name: the one given to Go, or the last SetName.
func (p *Proc) Name() string { return p.name }

// SetName renames the process, for the ProcPanic it may raise: a
// long-lived worker names itself after the job it has taken on.
func (p *Proc) SetName(name string) { p.name = name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Done returns an event that fires when the process terminates.
func (p *Proc) Done() *Event { return &p.doneEv }

// pause returns control to the scheduler until a queued wakeup resumes the
// process.
func (p *Proc) pause() { p.carrier.yield(struct{}{}) }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.env.after(d, resumeProc, p)
	p.pause()
}

// Yield lets any other events scheduled for the current instant run before
// the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Wait suspends the process until ev fires. If ev already fired, Wait
// returns immediately.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	ev.waiters = append(ev.waiters, waiter{resumeProc, p})
	p.pause()
}

// waiter is one parked continuation in event form: a process to resume
// (resumeProc) or a callback to run (callFunc). Wait queues hold both in
// arrival order so processes and callbacks interleave deterministically.
type waiter struct {
	fn  func(any)
	arg any
}

func (e *Env) wake(w waiter) { e.after(0, w.fn, w.arg) }

// Event is a one-shot condition processes and callbacks can wait on. Create
// with Env.NewEvent. Waiting after the event fired returns immediately.
// Reset re-arms a fired event so hot paths can reuse one event object per
// wait cycle instead of allocating a fresh event per wakeup.
type Event struct {
	env     *Env
	fired   bool
	waiters []waiter
}

// NewEvent returns an unfired event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fired reports whether the event has been signalled.
func (ev *Event) Fired() bool { return ev.fired }

// Signal fires the event, waking all waiters — processes and OnFire
// callbacks alike, in registration order — at the current virtual time.
// Signalling an already-fired event is a no-op.
func (ev *Event) Signal() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, w := range ev.waiters {
		ev.env.wake(w)
	}
	// Keep the backing array: a Reset event re-registers its waiter into
	// the same storage, so steady-state wait cycles allocate nothing.
	ev.waiters = ev.waiters[:0]
}

// Reset re-arms the event for another Signal/Wait cycle. It panics if
// waiters are still registered (the event has not fired yet): resetting
// under a parked waiter would strand it forever.
func (ev *Event) Reset() {
	if len(ev.waiters) > 0 {
		panic("sim: Reset of an event with parked waiters")
	}
	ev.fired = false
}

// Rearm makes ev waitable again if it has fired and leaves it alone (parked
// waiters included) if it has not: the step a loop takes before it waits
// once more on its one long-lived event. It stands in for a fresh NewEvent
// only where every waiter and signaller reads the event from its owner's
// field on each use — a pointer kept across a Rearm sees the next cycle.
func (ev *Event) Rearm() {
	if ev.fired {
		ev.Reset()
	}
}

// OnFire registers fn to run when the event fires; if the event already
// fired, fn is scheduled immediately.
func (ev *Event) OnFire(fn func()) {
	if ev.fired {
		ev.env.after(0, callFunc, fn)
		return
	}
	ev.waiters = append(ev.waiters, waiter{callFunc, fn})
}

// Resource is a counted FIFO resource (semaphore). Acquirers take units
// and wait, in arrival order, when none are free. Processes block in
// Acquire; continuations register a callback with AcquireFn; both wait on
// one FIFO. The zero value is not usable; call Env.NewResource.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	q        FIFO[waiter]
}

// NewResource returns a resource with the given capacity (> 0).
func (e *Env) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: e, capacity: capacity}
}

// Acquire takes one unit, blocking the calling process FIFO if none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.q.Push(waiter{resumeProc, p})
	p.pause()
}

// AcquireFn takes one unit for a continuation: when a unit is free, fn runs
// synchronously before AcquireFn returns; otherwise the continuation joins
// the same FIFO wait queue as blocked processes and fn runs in scheduler
// context when ownership transfers to it. Either way the caller owns one
// unit when fn runs and must Release it.
func (r *Resource) AcquireFn(fn func()) {
	if r.inUse < r.capacity {
		r.inUse++
		fn()
		return
	}
	r.q.Push(waiter{callFunc, fn})
}

// TryAcquire takes one unit if immediately available and reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit. If acquirers are queued, ownership transfers to
// the longest-waiting one, which resumes at the current virtual time.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	if r.q.Len() > 0 {
		r.env.wake(r.q.Pop())
		return
	}
	r.inUse--
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of acquirers waiting.
func (r *Resource) QueueLen() int { return r.q.Len() }
