// Sharded execution: a conservative parallel-discrete-event mode layered
// over the sequential Env engine.
//
// A ShardedEnv owns N ordinary Envs ("shards"), each with its own clock,
// event heap, seq counter, random source and spawn counter. Shard 0 is the
// host shard by convention (workload generators, queues, the FTL); further
// shards hold device-side event traffic (per-PU state machines). Events
// within a shard interact freely, exactly as on a plain Env. Events in
// different shards may only interact through Env.Post, which buffers the
// send in the source shard's outbox.
//
// Execution proceeds in windows. The coordinator finds T, the earliest
// pending event across all shards, and picks the window limit
// W = T + lookahead, where lookahead is the minimum cross-shard latency
// (every Post must carry a delay >= lookahead). Within [T, W) shards are
// independent — no message sent during the window can take effect before W
// — so each shard's sub-queue runs on a worker goroutine with no locks on
// the datapath. At the barrier the coordinator collects all outboxes and
// delivers them in (due, source shard, send order) order, assigning target
// sequence numbers in that order, then opens the next window.
//
// When lookahead is zero the engine falls back to lockstep: windows shrink
// to a single instant and re-run until no same-instant messages remain.
//
// Determinism contract: the merged delivery order is a pure function of
// the simulation itself, never of goroutine scheduling, so a sharded run's
// results depend only on (seed, topology, lookahead) — running with one
// worker or many workers is byte-identical. A ShardedEnv with a single
// shard degenerates to exactly the plain Env behaviour.
package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// xmsg is one buffered cross-shard send, recorded in the source shard's
// outbox during a window.
type xmsg struct {
	to  int
	due time.Duration
	fn  func(any)
	arg any
}

// inmsg is an outbox entry tagged with its deterministic merge key.
type inmsg struct {
	due time.Duration
	src int
	idx int
	to  int
	fn  func(any)
	arg any
}

// ShardedEnv coordinates a set of shard Envs executing under conservative
// time windows. Create with NewShardedEnv; drive with Run or RunUntil from
// a single goroutine (the coordinator).
type ShardedEnv struct {
	shards    []*Env
	lookahead time.Duration
	workers   int

	// exclusive > 0 forces windows onto the coordinator goroutine in shard
	// order. Control-plane paths that reach across shards directly (e.g.
	// recovery scans reading device media) raise it via Env.BeginExclusive.
	exclusive atomic.Int32

	limit  time.Duration // current window limit, published before dispatch
	workCh chan *Env
	wg     sync.WaitGroup

	mu     sync.Mutex
	panics []shardPanic

	inbox []inmsg // merge scratch, reused across windows
}

type shardPanic struct {
	shard int
	v     any
}

// shardSeedStride separates shard seeds; shard 0 keeps the given seed so a
// one-shard ShardedEnv reproduces NewEnv(seed) exactly.
const shardSeedStride = 1000003

// NewShardedEnv returns a coordinator over n shard environments (n >= 1).
// Shard i's random source is seeded seed + i*shardSeedStride.
func NewShardedEnv(seed int64, n int) *ShardedEnv {
	if n < 1 {
		panic("sim: NewShardedEnv needs at least one shard")
	}
	s := &ShardedEnv{shards: make([]*Env, n), workers: 1}
	for i := range s.shards {
		e := NewEnv(seed + int64(i)*shardSeedStride)
		e.coord = s
		e.shard = i
		s.shards[i] = e
	}
	return s
}

// Shard returns shard i's environment. Shard 0 is the host shard.
func (s *ShardedEnv) Shard(i int) *Env { return s.shards[i] }

// Host returns the host shard (shard 0).
func (s *ShardedEnv) Host() *Env { return s.shards[0] }

// Shards returns the number of shards.
func (s *ShardedEnv) Shards() int { return len(s.shards) }

// Lookahead returns the configured minimum cross-shard latency.
func (s *ShardedEnv) Lookahead() time.Duration { return s.lookahead }

// SetLookahead declares the minimum cross-shard latency. Every Post must
// carry a delay >= d (enforced at send time). Larger lookahead means wider
// windows and fewer barriers; zero falls back to lockstep execution. Call
// before running; changing it mid-run is not supported.
func (s *ShardedEnv) SetLookahead(d time.Duration) {
	if d < 0 {
		panic("sim: negative lookahead")
	}
	s.lookahead = d
}

// SetWorkers sets the number of worker goroutines windows are dispatched
// to. n <= 1 runs shards on the coordinator goroutine in shard order.
// Results are identical for any worker count; only wall-clock time varies.
// Call before running.
func (s *ShardedEnv) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Workers returns the configured worker count.
func (s *ShardedEnv) Workers() int { return s.workers }

// Now returns the host shard's current virtual time.
func (s *ShardedEnv) Now() time.Duration { return s.shards[0].now }

// Run executes events on all shards until every queue drains.
func (s *ShardedEnv) Run() { s.RunUntil(1<<62 - 1) }

// RunFor advances the simulation by d from the host shard's current time.
func (s *ShardedEnv) RunFor(d time.Duration) { s.RunUntil(s.shards[0].now + d) }

// RunUntil executes events with timestamps <= t across all shards, then
// advances every shard's clock to t (if t is not the Run sentinel).
func (s *ShardedEnv) RunUntil(t time.Duration) {
	par := s.workers > 1 && len(s.shards) > 1
	if par && s.workCh == nil {
		s.startWorkers()
		defer s.stopWorkers()
	}
	for {
		T, ok := s.nextTime()
		if !ok || T > t {
			break
		}
		win := s.lookahead
		if win == 0 {
			win = 1 // lockstep: the window is the single instant T
		}
		limit := T + win
		if m := t + 1; limit > m {
			limit = m // never execute past the RunUntil bound
		}
		s.window(limit)
	}
	for _, sh := range s.shards {
		sh.runUntilLocal(t)
	}
}

// nextTime returns the earliest pending event time across all shards.
func (s *ShardedEnv) nextTime() (time.Duration, bool) {
	var T time.Duration
	ok := false
	for _, sh := range s.shards {
		if at, has := sh.nextAt(); has && (!ok || at < T) {
			T, ok = at, true
		}
	}
	return T, ok
}

// window runs one conservative window: all shards execute their events
// with timestamps below limit, then buffered cross-shard messages merge at
// the barrier. Under lockstep (zero lookahead) a delivered message can be
// due within the same window, so the window re-runs until quiescent.
func (s *ShardedEnv) window(limit time.Duration) {
	for {
		s.runShards(limit)
		if !s.deliver(limit) {
			return
		}
	}
}

func (s *ShardedEnv) runShards(limit time.Duration) {
	if s.workCh == nil || s.exclusive.Load() > 0 {
		for _, sh := range s.shards {
			if at, ok := sh.nextAt(); ok && at < limit {
				sh.runThrough(limit - 1)
			}
		}
		return
	}
	s.limit = limit
	for _, sh := range s.shards {
		if at, ok := sh.nextAt(); ok && at < limit {
			s.wg.Add(1)
			s.workCh <- sh
		}
	}
	s.wg.Wait()
	if len(s.panics) > 0 {
		s.rethrow()
	}
}

// deliver merges all outboxes in deterministic (due, source shard, send
// order) order and pushes each message onto its target shard. It reports
// whether any delivered message is due before limit (lockstep re-run).
func (s *ShardedEnv) deliver(limit time.Duration) bool {
	msgs := s.inbox[:0]
	for _, sh := range s.shards {
		for i := range sh.outbox {
			m := &sh.outbox[i]
			msgs = append(msgs, inmsg{due: m.due, src: sh.shard, idx: i, to: m.to, fn: m.fn, arg: m.arg})
			sh.outbox[i] = xmsg{} // release references
		}
		sh.outbox = sh.outbox[:0]
	}
	s.inbox = msgs
	if len(msgs) == 0 {
		return false
	}
	sort.Slice(msgs, func(i, j int) bool {
		a, b := &msgs[i], &msgs[j]
		if a.due != b.due {
			return a.due < b.due
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.idx < b.idx
	})
	again := false
	for i := range msgs {
		m := &msgs[i]
		s.shards[m.to].push(m.due, m.fn, m.arg)
		if m.due < limit {
			again = true
		}
		msgs[i] = inmsg{} // release references
	}
	return again
}

func (s *ShardedEnv) startWorkers() {
	ch := make(chan *Env, len(s.shards))
	s.workCh = ch
	for i := 0; i < s.workers; i++ {
		go s.worker(ch)
	}
}

func (s *ShardedEnv) stopWorkers() {
	close(s.workCh)
	s.workCh = nil
}

func (s *ShardedEnv) worker(ch chan *Env) {
	for sh := range ch {
		s.runOne(sh)
		s.wg.Done()
	}
}

func (s *ShardedEnv) runOne(sh *Env) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.panics = append(s.panics, shardPanic{sh.shard, r})
			s.mu.Unlock()
		}
	}()
	sh.runThrough(s.limit - 1)
}

// rethrow propagates the lowest-shard panic on the coordinator goroutine,
// so error reporting is deterministic regardless of worker interleaving.
func (s *ShardedEnv) rethrow() {
	min := 0
	for i := 1; i < len(s.panics); i++ {
		if s.panics[i].shard < s.panics[min].shard {
			min = i
		}
	}
	p := s.panics[min]
	s.panics = nil
	panic(fmt.Sprintf("sim: shard %d: %v", p.shard, p.v))
}

// Post schedules fn(arg) on the to environment at the current virtual time
// plus d. Posting to the own environment (or on a plain unsharded Env) is
// exactly ScheduleArg. Posting to a different shard of the same ShardedEnv
// buffers the message for barrier delivery and requires d >= the
// coordinator's lookahead — the conservative-window contract. Posting
// between unrelated environments panics.
func (e *Env) Post(to *Env, d time.Duration, fn func(any), arg any) {
	if to == e {
		e.ScheduleArg(d, fn, arg)
		return
	}
	if e.coord == nil || to.coord != e.coord {
		panic("sim: Post across unrelated environments")
	}
	if d < e.coord.lookahead {
		panic("sim: Post delay below coordinator lookahead")
	}
	e.outbox = append(e.outbox, xmsg{to: to.shard, due: e.now + d, fn: fn, arg: arg})
}

// Sharded reports whether the environment is a shard of a multi-shard
// coordinator (so cross-shard Posts actually cross goroutines).
func (e *Env) Sharded() bool { return e.coord != nil && len(e.coord.shards) > 1 }

// Coordinator returns the ShardedEnv the environment belongs to, or nil
// for a plain Env.
func (e *Env) Coordinator() *ShardedEnv { return e.coord }

// BeginExclusive raises the coordinator's exclusive depth and sleeps the
// calling process past the current window, after which window execution is
// single-threaded in shard order until EndExclusive. Control-plane code
// that reads or writes another shard's state directly (recovery scans,
// debug dumps over live devices) brackets itself with this; on a plain Env
// it is a no-op and does not sleep.
func (e *Env) BeginExclusive(p *Proc) {
	if !e.Sharded() {
		return
	}
	e.coord.exclusive.Add(1)
	d := e.coord.lookahead
	if d == 0 {
		d = 1
	}
	p.Sleep(d)
}

// EndExclusive releases one BeginExclusive. Parallel window dispatch
// resumes at the next window boundary.
func (e *Env) EndExclusive() {
	if !e.Sharded() {
		return
	}
	if e.coord.exclusive.Add(-1) < 0 {
		panic("sim: EndExclusive without BeginExclusive")
	}
}
