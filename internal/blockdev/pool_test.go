package blockdev

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSynchronousCompletionChainDeep drives a device whose issue path
// completes synchronously through a resubmit-from-callback chain long
// enough that the pre-iterative finish (finish → OnComplete → Submit →
// dispatch → issue → done → finish recursion) would have overflowed the
// stack. The iterative completion drain runs it in constant stack.
func TestSynchronousCompletionChainDeep(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &fakeDev{}
	q := NewQueue(env, dev, 1, func(req *Request, done func(*Request)) {
		done(req) // synchronous completion, legal per the IssueFunc contract
	})
	const N = 200000
	var pool ReqPool
	completed := 0
	var onComplete func(*Request)
	onComplete = func(r *Request) {
		completed++
		pool.Put(r)
		if completed < N {
			nr := pool.Get()
			nr.Op, nr.Off, nr.Length, nr.OnComplete = ReqRead, 0, 512, onComplete
			q.Submit(nr)
		}
	}
	first := pool.Get()
	first.Op, first.Off, first.Length, first.OnComplete = ReqRead, 0, 512, onComplete
	q.Submit(first)
	env.Run()
	if completed != N {
		t.Fatalf("completed %d of %d requests", completed, N)
	}
	if got := q.InFlight(); got != 0 {
		t.Fatalf("queue reports %d in flight after drain", got)
	}
}

// TestReqPoolFullReset checks that a recycled request comes back zeroed:
// no stale op, range, buffer, callback, error, or timestamps.
func TestReqPoolFullReset(t *testing.T) {
	var pool ReqPool
	r := pool.Get()
	r.Op, r.Off, r.Buf, r.Length = ReqWrite, 4096, make([]byte, 512), 512
	r.OnComplete = func(*Request) {}
	r.Err = ErrOutOfRange
	r.Submitted, r.Done = 3*time.Second, 4*time.Second
	pool.Put(r)
	got := pool.Get()
	if got != r {
		t.Fatalf("pool did not reuse the recycled request")
	}
	if got.Op != 0 || got.Off != 0 || got.Buf != nil || got.Length != 0 ||
		got.OnComplete != nil || got.Err != nil || got.Submitted != 0 || got.Done != 0 {
		t.Fatalf("recycled request not fully reset: %+v", got)
	}
}

func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic %q, got none", want)
		}
		if s, ok := r.(string); !ok || s != want {
			t.Fatalf("expected panic %q, got %v", want, r)
		}
	}()
	fn()
}

// TestReqPoolDoubleRecyclePanics checks the debug guard against returning
// the same request twice.
func TestReqPoolDoubleRecyclePanics(t *testing.T) {
	var pool ReqPool
	r := pool.Get()
	pool.Put(r)
	expectPanic(t, "blockdev: double recycle of a pooled Request", func() {
		pool.Put(r)
	})
}

// TestReqPoolInFlightRecyclePanics checks the debug guard against
// recycling a request the queue still owns.
func TestReqPoolInFlightRecyclePanics(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &fakeDev{}
	q := NewQueue(env, dev, 1, func(req *Request, done func(*Request)) {
		// Never completes: the request stays in flight.
	})
	var pool ReqPool
	r := pool.Get()
	r.Op, r.Length, r.OnComplete = ReqRead, 512, func(*Request) {}
	q.Submit(r)
	env.RunFor(time.Millisecond)
	expectPanic(t, "blockdev: recycle of an in-flight Request", func() {
		pool.Put(r)
	})
}

// TestSubmitPooledRequestPanics checks the debug guard against submitting
// a request that is still in a pool.
func TestSubmitPooledRequestPanics(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &fakeDev{}
	q := NewQueue(env, dev, 1, func(req *Request, done func(*Request)) { done(req) })
	var pool ReqPool
	r := pool.Get()
	pool.Put(r)
	expectPanic(t, "blockdev: Submit of a recycled Request still in its pool", func() {
		q.Submit(r)
	})
}

// TestSyncAdapterSteadyStateAllocs asserts the blocking adapter allocates
// nothing per call once warm: the request+event box is pooled and the
// scratch slice a queue submission needs is the adapter's own.
func TestSyncAdapterSteadyStateAllocs(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &fakeDev{lat: time.Microsecond}
	ad := NewQueueAdapter(env, NewQueue(env, dev, 4, dev.issue(env)))
	buf := make([]byte, 512)
	const warm, measured = 64, 1000
	var before, after runtime.MemStats
	envDone := false
	env.Go("sync-alloc", func(p *sim.Proc) {
		for i := 0; i < warm; i++ {
			if err := ad.Read(p, 0, buf, 512); err != nil {
				t.Errorf("warmup read: %v", err)
				return
			}
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < measured; i++ {
			if err := ad.Read(p, 0, buf, 512); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
		runtime.ReadMemStats(&after)
		envDone = true
	})
	env.Run()
	if !envDone {
		t.Fatal("measurement process did not finish")
	}
	allocs := after.Mallocs - before.Mallocs
	// Allow a little noise from the runtime itself (ReadMemStats, timer
	// machinery); per-op allocations would show up as >= `measured`.
	if allocs > uint64(measured)/10 {
		t.Fatalf("SyncAdapter steady state allocated %d objects over %d ops", allocs, measured)
	}
}
