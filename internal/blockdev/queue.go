// Asynchronous queue-pair block I/O, mirroring Linux blk-mq / NVMe queue
// pairs (paper §2.2): callers submit Requests to a Queue and receive
// completions through callbacks instead of blocking one process per
// request. A device supplies one IssueFunc; NewQueue builds its queue
// pairs on it and SyncAdapter its blocking calls.
//
// The whole datapath is allocation-free in steady state: accepted
// requests wait in a sim.FIFO, completions drain through a pooled batch
// with a single dispatch pass per burst, and callers reuse Request objects
// through ReqPool instead of allocating one per I/O (see the recycle
// contract on ReqPool).

package blockdev

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// ReqOp selects the operation of an asynchronous block request.
type ReqOp int

// Request operations.
const (
	ReqRead ReqOp = iota
	ReqWrite
	// ReqFlush is a barrier: it is dispatched only after every earlier
	// request on its queue has completed, and later requests are held until
	// the flush itself completes.
	ReqFlush
	ReqTrim
)

// Write-lifetime hints, carried on Request.Hint. They mirror NVMe write
// stream directives: a hint-aware device (pblk) may use them to segregate
// data with different lifetimes into different append streams; every other
// device ignores them.
const (
	// HintNone marks ordinary data with unknown lifetime.
	HintNone uint8 = iota
	// HintCold marks long-lived sequential data (SSTable flush/compaction
	// output) that the application erases in whole extents.
	HintCold
	// HintColdSeg marks the first write of a new cold append segment. A
	// stream-aware FTL placing cold data in a dedicated append stream may
	// realign that stream to an erase-unit boundary at the marker (the ZNS
	// finish-zone-per-SSTable discipline), so segments sized to the erase
	// unit map onto whole units and die whole when the application trims
	// them. Devices without stream placement treat it exactly as HintCold.
	HintColdSeg
)

func (o ReqOp) String() string {
	switch o {
	case ReqRead:
		return "read"
	case ReqWrite:
		return "write"
	case ReqFlush:
		return "flush"
	case ReqTrim:
		return "trim"
	}
	return fmt.Sprintf("reqop(%d)", int(o))
}

// Request pool states, tracked so queue and pool can panic on ownership
// violations (double recycle, recycle in flight, submit of a pooled
// request) instead of silently corrupting the datapath.
const (
	reqIdle     uint8 = iota // owned by the caller; may be mutated/submitted
	reqInFlight              // accepted by a queue; owned by the queue
	reqPooled                // parked in a ReqPool; must not be referenced
)

// Request is one asynchronous block I/O travelling through a Queue. Off
// and Length are bytes and must be sector aligned; ReqFlush carries no
// range. Buf follows the Device conventions: nil performs a synthetic
// transfer of Length bytes. A request must not be mutated or resubmitted
// while in flight; Buf must stay valid until completion.
//
// Ownership: between Submit and the completion callback the request
// belongs to the queue. Once OnComplete has run (or, without a callback,
// once the request is observed completed after Drain) it returns to the
// caller, who may reuse it immediately — the queue keeps no reference —
// or recycle it through a ReqPool.
type Request struct {
	Op     ReqOp
	Off    int64
	Buf    []byte
	Length int64

	// Hint is an optional write-lifetime hint (HintNone/HintCold).
	// Hint-aware devices may route the write to a matching append stream;
	// all other devices ignore it.
	Hint uint8

	// OnComplete, when non-nil, runs exactly once in simulation context
	// when the request finishes; Err, Submitted and Done are set by then.
	OnComplete func(*Request)

	// Err is the request outcome, nil on success.
	Err error
	// Submitted and Done are the virtual times the queue accepted and
	// completed the request; Done-Submitted includes any in-queue wait.
	Submitted, Done time.Duration

	state uint8 // reqIdle/reqInFlight/reqPooled ownership guard
}

// Latency returns the request's submission-to-completion time.
func (r *Request) Latency() time.Duration { return r.Done - r.Submitted }

// ReqPool recycles Request objects so steady-state datapaths allocate
// none. It is not safe for concurrent use; keep one pool per simulation
// environment (or per single-threaded owner).
//
// Recycle contract, mirroring ocssd.Device.Recycle: a request may be
// recycled (Put) only by its owner, after its completion callback has run
// — the queue drops its reference before invoking OnComplete, so
// recycling from inside the callback is legal. Put fully resets the
// request (Op, range, Buf, OnComplete, Err, timestamps); Get returns it
// zeroed. Recycling an in-flight request, recycling twice, or submitting
// a request that is still pooled panics.
type ReqPool struct {
	free sim.Pool[*Request]
}

// Get returns a zeroed request, reusing a recycled one when available.
func (p *ReqPool) Get() *Request {
	if r := p.free.Get(); r != nil {
		r.state = reqIdle
		return r
	}
	return &Request{}
}

// Put recycles a completed request. See the ReqPool recycle contract.
func (p *ReqPool) Put(r *Request) {
	switch r.state {
	case reqPooled:
		panic("blockdev: double recycle of a pooled Request")
	case reqInFlight:
		panic("blockdev: recycle of an in-flight Request")
	}
	*r = Request{state: reqPooled}
	p.free.Put(r)
}

// Queue is one submission/completion queue pair. At most Depth requests
// are dispatched to the device concurrently; accepted requests beyond that
// wait inside the queue in submission order. All methods must be called
// from simulation context.
type Queue interface {
	// Geometry is what submitted requests are validated against.
	Geometry
	// Depth returns the dispatch concurrency bound.
	Depth() int
	// InFlight returns requests accepted but not yet completed.
	InFlight() int
	// Submit accepts a batch of requests without blocking. Invalid
	// requests complete asynchronously with the validation error.
	Submit(reqs ...*Request)
	// Drain suspends p until every accepted request has completed.
	Drain(p *sim.Proc)
}

// QueueProvider opens queue pairs on a device. env is the simulation
// environment completions are scheduled on; devices bound to their own
// environment may ignore it.
type QueueProvider interface {
	OpenQueue(env *sim.Env, depth int) Queue
}

// OpenQueue returns a queue pair of the given depth on dev.
func OpenQueue(env *sim.Env, dev QueueProvider, depth int) Queue {
	return dev.OpenQueue(env, depth)
}

// IssueFunc starts one validated request on a device: the whole of a
// device's datapath. One IssueFunc value serves one caller (a queue pair,
// or a SyncAdapter) and is handed the same done on every call, so an
// implementation can bind it once and schedule it without building a
// closure per request; a device whose issue path keeps such state hands
// each caller its own value. done must be called exactly once with the
// same request, from simulation context, after the request's Err is set.
// Calling done synchronously from within the IssueFunc call is legal: the
// queue's completion drain is iterative, so arbitrarily long synchronous
// completion chains cannot recurse.
type IssueFunc func(req *Request, done func(*Request))

// NewQueue builds a queue pair over an issue function. Device
// implementations use it for their QueueProvider plumbing; it handles
// validation, depth-bounded dispatch, flush barriers, in-flight accounting
// and drain.
func NewQueue(env *sim.Env, dev Geometry, depth int, issue IssueFunc) Queue {
	if depth < 1 {
		depth = 1
	}
	q := &cbQueue{env: env, dev: dev, depth: depth, issue: issue}
	q.completeFn = q.complete
	q.finishArg = func(a any) { q.finish(a.(*Request)) }
	return q
}

// cbQueue is the shared queue-pair state machine.
type cbQueue struct {
	env   *sim.Env
	dev   Geometry
	depth int
	issue IssueFunc

	pending  sim.FIFO[*Request] // accepted, not yet dispatched (submission order)
	active   int                // dispatched to the device, not yet completed
	inflight int                // accepted, not yet completed
	barrier  bool               // a flush is dispatched; hold everything behind it
	drainEv  *sim.Event         // fired when inflight reaches 0; nil until the first Drain

	completeFn func(*Request) // == complete, bound once for closure-free issue
	finishArg  func(any)      // == finish via any, for closure-free Schedule

	// finished is the pooled completion batch: requests completing while a
	// drain pass runs (synchronous done calls, completion chains through
	// stacked devices) append here and the single iterative loop in finish
	// consumes them, so a burst runs one dispatch/notify pass per batch
	// instead of recursing once per request.
	finished  []*Request
	finishing bool
}

func (q *cbQueue) SectorSize() int { return q.dev.SectorSize() }
func (q *cbQueue) Capacity() int64 { return q.dev.Capacity() }
func (q *cbQueue) Depth() int      { return q.depth }
func (q *cbQueue) InFlight() int   { return q.inflight }

// validate checks a request against the geometry it is about to be issued
// on; an IssueFunc only ever sees requests that passed it.
func validate(dev Geometry, r *Request) error {
	switch r.Op {
	case ReqFlush:
		return nil
	case ReqTrim:
		return CheckRange(dev, r.Off, nil, r.Length)
	case ReqRead, ReqWrite:
		return CheckRange(dev, r.Off, r.Buf, r.Length)
	}
	return fmt.Errorf("blockdev: unknown request op %d", int(r.Op))
}

func (q *cbQueue) Submit(reqs ...*Request) {
	now := q.env.Now()
	for _, r := range reqs {
		switch r.state {
		case reqPooled:
			panic("blockdev: Submit of a recycled Request still in its pool")
		case reqInFlight:
			panic("blockdev: Submit of a Request already in flight")
		}
		r.state = reqInFlight
		r.Submitted = now
		q.inflight++
		if err := validate(q.dev, r); err != nil {
			r.Err = err
			q.env.ScheduleArg(0, q.finishArg, r)
			continue
		}
		q.pending.Push(r)
	}
	q.dispatch()
}

// dispatch starts pending requests in submission order while slots are
// free, stopping at a flush until the queue is empty ahead of it.
func (q *cbQueue) dispatch() {
	for !q.barrier && q.active < q.depth && q.pending.Len() > 0 {
		r := q.pending.Front()
		if r.Op == ReqFlush {
			if q.active > 0 {
				return
			}
			q.barrier = true
		}
		q.pending.Pop()
		q.active++
		q.issue(r, q.completeFn)
	}
}

// complete is the stable completion entry point handed to the issue
// function: free the dispatch slot (and barrier), then finish.
func (q *cbQueue) complete(r *Request) {
	q.active--
	if r.Op == ReqFlush {
		q.barrier = false
	}
	q.finish(r)
}

// finish completes requests through the pooled batch: the outermost call
// runs the drain loop — stamp, account, notify, then one dispatch pass
// per drained batch — while nested completions (synchronous done calls
// from issue, completion chains re-entering through OnComplete or
// dispatch) only append to the batch. Dispatch recursion depth is
// therefore constant regardless of queue depth or burst length.
func (q *cbQueue) finish(r *Request) {
	q.finished = append(q.finished, r)
	if q.finishing {
		return
	}
	q.finishing = true
	now := q.env.Now()
	for i := 0; i < len(q.finished); {
		for ; i < len(q.finished); i++ {
			c := q.finished[i]
			q.finished[i] = nil
			c.Done = now
			q.inflight--
			// The queue's reference ends here: OnComplete may recycle or
			// resubmit the request.
			c.state = reqIdle
			if c.OnComplete != nil {
				c.OnComplete(c)
			}
		}
		if q.inflight == 0 && q.drainEv != nil {
			q.drainEv.Signal()
		}
		q.dispatch()
	}
	q.finished = q.finished[:0]
	q.finishing = false
}

// Drain waits on the queue's one drain event, made on first use and
// re-armed for every later drain.
func (q *cbQueue) Drain(p *sim.Proc) {
	for q.inflight > 0 {
		if q.drainEv == nil {
			q.drainEv = q.env.NewEvent()
		}
		q.drainEv.Rearm()
		p.Wait(q.drainEv)
	}
}

// syncCall is one pooled blocking-call context: an embedded request with
// a pre-bound completion event, reused across calls so the blocking call
// allocates nothing in steady state.
type syncCall struct {
	req Request
	ev  *sim.Event
}

// SyncAdapter is the blocking call style over an issue function: the one
// helper behind every Device's Read, Write, Flush and Trim and behind the
// layers that make blocking calls on a queue of theirs (lsmdb's table and
// log I/O, the volume layer's rebuild and resync copies). Each call
// validates one request, issues it and suspends the calling process until
// it completes. Calls reuse pooled request/event pairs, so concurrent
// callers are safe and the steady state allocates nothing.
type SyncAdapter struct {
	dev   Geometry
	issue IssueFunc
	calls sim.Pool[*syncCall]
}

// NewSyncAdapter returns the blocking calls of the device with geometry dev
// and issue function issue. It sits on the issue function, not on a queue
// pair opened for the purpose: a blocking Flush is then no barrier for
// other callers and no depth bounds concurrent callers, which is what
// processes calling a Device expect. env must be the environment issue
// completes on.
func NewSyncAdapter(env *sim.Env, dev Geometry, issue IssueFunc) *SyncAdapter {
	s := &SyncAdapter{dev: dev, issue: issue}
	s.calls.New = func() *syncCall {
		c := &syncCall{ev: env.NewEvent()}
		c.req.OnComplete = func(*Request) { c.ev.Signal() }
		return c
	}
	return s
}

// NewQueueAdapter returns blocking calls that are submitted to q, sharing
// its depth, flush barriers and accounting with q's other submitters. env
// must be the environment q completes on.
func NewQueueAdapter(env *sim.Env, q Queue) *SyncAdapter {
	// The queue runs the request's OnComplete itself, which is all that
	// syncDone would do. One scratch slice serves every call: Submit does
	// not keep it, and a variadic call through the interface would
	// allocate one per request.
	var one [1]*Request
	return NewSyncAdapter(env, q, func(r *Request, _ func(*Request)) {
		one[0] = r
		q.Submit(one[:]...)
	})
}

// syncDone is the done every SyncAdapter hands its issue function: the
// same function on every call, as IssueFunc promises, with the waiting
// process found through the request's own pre-bound OnComplete.
func syncDone(r *Request) { r.OnComplete(r) }

// Do issues one request and suspends p until it completes: the one blocking
// call every layer shares. hint is the write-lifetime hint
// (HintNone/HintCold); Read, Write, Flush and Trim are Do with HintNone.
func (s *SyncAdapter) Do(p *sim.Proc, op ReqOp, off int64, buf []byte, length int64, hint uint8) error {
	c := s.calls.Get()
	c.req.Op, c.req.Off, c.req.Buf, c.req.Length, c.req.Hint, c.req.Err = op, off, buf, length, hint, nil
	err := validate(s.dev, &c.req)
	if err == nil {
		s.issue(&c.req, syncDone)
		p.Wait(c.ev)
		c.ev.Reset()
		err = c.req.Err
	}
	c.req.Buf = nil
	s.calls.Put(c)
	return err
}

// Read fills buf with length bytes at off.
func (s *SyncAdapter) Read(p *sim.Proc, off int64, buf []byte, length int64) error {
	return s.Do(p, ReqRead, off, buf, length, HintNone)
}

// Write stores length bytes from buf at off.
func (s *SyncAdapter) Write(p *sim.Proc, off int64, buf []byte, length int64) error {
	return s.Do(p, ReqWrite, off, buf, length, HintNone)
}

// Flush blocks until all acknowledged writes are durable.
func (s *SyncAdapter) Flush(p *sim.Proc) error {
	return s.Do(p, ReqFlush, 0, nil, 0, HintNone)
}

// Trim discards the given range.
func (s *SyncAdapter) Trim(p *sim.Proc, off, length int64) error {
	return s.Do(p, ReqTrim, off, nil, length, HintNone)
}
