// Package fio is a flexible I/O workload generator in virtual time,
// mirroring how the paper drives its evaluation with fio (§5). It has one
// engine, targeting any blockdev.Device: pblk, the NVMe baseline, null
// block, a volume — and, for direct PPA I/O (the paper's fio with the
// LightNVM I/O engine), a lightnvm raw target over the PUs under test.
//
// The engine drives queue depth the way fio's libaio engine does: one
// worker per job opens a blockdev.Queue and keeps QD requests in flight
// with batched submission, recording per-request latency from completions.
package fio

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Pattern selects the access pattern of a job.
type Pattern int

// Access patterns, matching fio's rw= parameter.
const (
	SeqRead Pattern = iota
	SeqWrite
	RandRead
	RandWrite
	RandRW // mixed, RWMixRead% reads
)

func (pt Pattern) String() string {
	switch pt {
	case SeqRead:
		return "read"
	case SeqWrite:
		return "write"
	case RandRead:
		return "randread"
	case RandWrite:
		return "randwrite"
	case RandRW:
		return "randrw"
	}
	return fmt.Sprintf("pattern(%d)", int(pt))
}

// Job describes one workload, fio-style.
type Job struct {
	Name    string
	Pattern Pattern
	BS      int   // request size in bytes
	QD      int   // queue depth: concurrent in-flight requests per worker
	NumJobs int   // independent workers (each with its own queue and QD)
	Offset  int64 // region base
	Size    int64 // region length; random offsets and wraps stay inside
	// RWMixRead is the read percentage for RandRW (fio rwmixread).
	RWMixRead int
	// WriteRateMBps rate-limits writes (fio rate); 0 = unlimited.
	WriteRateMBps float64
	// Runtime is the virtual duration to run; MaxOps is an alternative
	// stop condition (whichever comes first; zero means unused). A job
	// sets at least one of them; neither may be negative.
	Runtime time.Duration
	MaxOps  int64
	// SyncEvery issues a flush after every N writes (0 = never).
	SyncEvery int
	Seed      int64
}

func (j Job) norm() Job {
	if j.QD == 0 {
		j.QD = 1
	}
	if j.NumJobs == 0 {
		j.NumJobs = 1
	}
	if j.Seed == 0 {
		j.Seed = 1
	}
	return j
}

// validate rejects jobs the engine cannot run sensibly: unaligned or
// non-positive request sizes, a read mix that is no percentage, a negative
// write rate, regions outside the device, regions smaller
// than one request (the seed's rng.Int63n(0) panic), and sequential jobs
// with more workers than request slots (zero stride: every worker would
// hammer offset 0).
func (j Job) validate(dev blockdev.Device) error {
	ss := int64(dev.SectorSize())
	if j.QD < 1 || j.NumJobs < 1 {
		return fmt.Errorf("fio: QD %d and NumJobs %d must be positive", j.QD, j.NumJobs)
	}
	if j.BS <= 0 || int64(j.BS)%ss != 0 {
		return fmt.Errorf("fio: BS %dB is not a positive multiple of the %dB sector", j.BS, ss)
	}
	if j.RWMixRead < 0 || j.RWMixRead > 100 {
		return fmt.Errorf("fio: RWMixRead %d%% outside [0, 100]", j.RWMixRead)
	}
	if j.WriteRateMBps < 0 {
		return fmt.Errorf("fio: negative WriteRateMBps %g", j.WriteRateMBps)
	}
	if j.Runtime < 0 || j.MaxOps < 0 || (j.Runtime == 0 && j.MaxOps == 0) {
		return fmt.Errorf("fio: Runtime %v and MaxOps %d: want one positive stop condition, neither negative", j.Runtime, j.MaxOps)
	}
	if j.Offset < 0 || j.Offset%ss != 0 {
		return fmt.Errorf("fio: offset %d is not sector aligned", j.Offset)
	}
	if j.Size <= 0 || j.Offset+j.Size > dev.Capacity() {
		return fmt.Errorf("fio: region [%d, %d) outside device capacity %dB", j.Offset, j.Offset+j.Size, dev.Capacity())
	}
	maxOff := j.Size / int64(j.BS)
	if maxOff < 1 {
		return fmt.Errorf("fio: region of %dB holds no complete %dB request", j.Size, j.BS)
	}
	if (j.Pattern == SeqRead || j.Pattern == SeqWrite) && int64(j.NumJobs) > maxOff {
		return fmt.Errorf("fio: %d sequential workers over a region with only %d request slots", j.NumJobs, maxOff)
	}
	return nil
}

// Result aggregates a run's latencies and volume.
type Result struct {
	Job        Job
	ReadLat    stats.Hist
	WriteLat   stats.Hist
	ReadBytes  int64
	WriteBytes int64
	Reads      int64
	Writes     int64
	Errors     int64
	Elapsed    time.Duration
}

// ReadMBps returns read throughput in MB/s.
func (r *Result) ReadMBps() float64 { return stats.Throughput(r.ReadBytes, r.Elapsed) }

// WriteMBps returns write throughput in MB/s.
func (r *Result) WriteMBps() float64 { return stats.Throughput(r.WriteBytes, r.Elapsed) }

func (r *Result) String() string {
	s := fmt.Sprintf("%s: ", r.Job.Name)
	if r.Reads > 0 {
		s += fmt.Sprintf("R %.1fMB/s lat[%v] ", r.ReadMBps(), r.ReadLat.Summarize())
	}
	if r.Writes > 0 {
		s += fmt.Sprintf("W %.1fMB/s lat[%v]", r.WriteMBps(), r.WriteLat.Summarize())
	}
	return s
}

// jobState is the run-wide state shared by all workers of one job: the op
// budget, the write-rate token schedule, and the result sink. The
// simulation is single-threaded, so plain fields suffice.
type jobState struct {
	res         *Result
	deadline    time.Duration
	opBudget    int64
	issued      int64
	nextWriteAt time.Duration
	writeGap    time.Duration
	maxOff      int64
}

// Run executes the job against dev, blocking the calling process until all
// workers finish. All timing is virtual. Each of the job's NumJobs workers
// opens its own queue pair (the device's native one when available) and
// sustains QD in-flight requests from a single process.
func Run(p *sim.Proc, dev blockdev.Device, job Job) (*Result, error) {
	job = job.norm()
	env := p.Env()
	if job.Size == 0 {
		job.Size = dev.Capacity() - job.Offset
	}
	if err := job.validate(dev); err != nil {
		return nil, err
	}
	st := newJobState(env, job)
	start := env.Now()
	done := env.NewEvent()
	running := job.NumJobs
	onExit := func() {
		running--
		if running == 0 {
			done.Signal()
		}
	}
	for w := 0; w < job.NumJobs; w++ {
		rng := rand.New(rand.NewSource(job.Seed + int64(w)*104729))
		// Sequential workers partition the region so each stream stays
		// sequential within its stripe.
		seqCursor := int64(w) * (st.maxOff / int64(job.NumJobs))
		// The queue opens inside the scheduled start, exactly where the
		// process form opened it, so any provider-side setup events keep
		// their position in the trace.
		env.Schedule(0, func() {
			qw := newQueueWorker(env, blockdev.OpenQueue(env, dev, job.QD), job, st, rng, seqCursor, onExit)
			qw.pump()
		})
	}
	p.Wait(done)
	st.res.Elapsed = env.Now() - start
	return st.res, nil
}

func newJobState(env *sim.Env, job Job) *jobState {
	st := &jobState{
		res:      &Result{Job: job},
		deadline: time.Duration(1<<62 - 1),
		opBudget: 1<<62 - 1,
		maxOff:   job.Size / int64(job.BS),
	}
	if job.Runtime > 0 {
		st.deadline = env.Now() + job.Runtime
	}
	if job.MaxOps > 0 {
		st.opBudget = job.MaxOps
	}
	if job.WriteRateMBps > 0 {
		st.writeGap = time.Duration(float64(job.BS) / (job.WriteRateMBps * 1e6) * float64(time.Second))
	}
	return st
}

// claimWriteToken reserves the next slot of the shared write-rate token
// schedule and returns when it matures (now, if the schedule is idle).
func (st *jobState) claimWriteToken(now time.Duration) time.Duration {
	at := st.nextWriteAt
	if at < now {
		at = now
	}
	st.nextWriteAt = at + st.writeGap
	return at
}

// nextOp draws the next operation of the access pattern.
func (st *jobState) nextOp(job Job, rng *rand.Rand, seqCursor *int64) (isRead bool, off int64) {
	switch job.Pattern {
	case SeqRead, SeqWrite:
		off = (*seqCursor % st.maxOff) * int64(job.BS)
		*seqCursor++
		isRead = job.Pattern == SeqRead
	case RandRead, RandWrite:
		off = rng.Int63n(st.maxOff) * int64(job.BS)
		isRead = job.Pattern == RandRead
	case RandRW:
		off = rng.Int63n(st.maxOff) * int64(job.BS)
		isRead = rng.Intn(100) < job.RWMixRead
	}
	return isRead, off + job.Offset
}

// record folds one completion into the shared result.
func (st *jobState) record(req *blockdev.Request, bs int64) {
	if req.Err != nil {
		st.res.Errors++
		return
	}
	switch req.Op {
	case blockdev.ReqRead:
		st.res.ReadLat.Add(req.Latency())
		st.res.ReadBytes += bs
		st.res.Reads++
	case blockdev.ReqWrite:
		st.res.WriteLat.Add(req.Latency())
		st.res.WriteBytes += bs
		st.res.Writes++
	}
}

// queueWorker is one job worker: a continuation pump sustaining up to QD
// in-flight requests on q. Ready requests are gathered into a batch and
// submitted together; the pump then parks as an OnFire callback until a
// completion frees a slot (or, for rate-limited writes, reschedules itself
// for when the next token matures). It is the goroutine-free form of the
// process loop it replaced: every scheduler interaction — start, token
// sleep, completion wake — pushes exactly one event at the same position
// the process form did, so simulated traces are unchanged while each
// wakeup saves two channel handoffs.
type queueWorker struct {
	env       *sim.Env
	q         blockdev.Queue
	job       Job
	st        *jobState
	rng       *rand.Rand
	seqCursor int64

	inflight int
	// kick is reused (Reset) across wait cycles; the pump drains the fired
	// state before re-arming.
	kick *sim.Event
	// Completed requests return to a per-worker pool: a worker in steady
	// state reuses the same QD request objects for the whole run.
	reqs sim.Pool[*blockdev.Request]
	// prepared is an op that consumed budget (and, for rate-limited
	// writes, claimed a token) but has not been submitted yet.
	prepared        *blockdev.Request
	tokenAt         time.Duration
	writesSinceSync int
	batch           []*blockdev.Request
	pumpFn          func() // == pump, bound once for closure-free rescheduling
	onExit          func() // job-level completion accounting
}

func newQueueWorker(env *sim.Env, q blockdev.Queue, job Job, st *jobState, rng *rand.Rand, seqCursor int64, onExit func()) *queueWorker {
	w := &queueWorker{
		env: env, q: q, job: job, st: st,
		rng: rng, seqCursor: seqCursor, onExit: onExit,
	}
	w.kick = env.NewEvent()
	w.batch = make([]*blockdev.Request, 0, job.QD+1)
	w.pumpFn = w.pump
	// Pre-fill the pool from one slab. A worker holds at most QD+1
	// requests (QD in flight, batched or prepared, plus a flush), so the
	// pool never runs dry and needs no New: the whole run draws from these
	// two allocations instead of QD cold misses.
	slab := make([]blockdev.Request, job.QD+2)
	cb := w.onComplete // bind the method value once, not per request
	for i := range slab {
		slab[i].OnComplete = cb
		w.reqs.Put(&slab[i])
	}
	return w
}

func (w *queueWorker) onComplete(req *blockdev.Request) {
	w.inflight--
	w.st.record(req, int64(w.job.BS))
	req.Err = nil
	w.reqs.Put(req)
	w.kick.Signal()
}

func (w *queueWorker) newReq(op blockdev.ReqOp, off int64, length int64) *blockdev.Request {
	r := w.reqs.Get()
	r.Op, r.Off, r.Length = op, off, length
	return r
}

func (w *queueWorker) pump() {
	env, job, st := w.env, w.job, w.st
	for {
		// Gather everything issuable at this instant into one batch.
		for w.inflight+len(w.batch) < job.QD {
			if w.prepared == nil {
				if st.issued >= st.opBudget || env.Now() >= st.deadline {
					break
				}
				st.issued++
				isRead, off := st.nextOp(job, w.rng, &w.seqCursor)
				op := blockdev.ReqWrite
				if isRead {
					op = blockdev.ReqRead
				}
				w.prepared = w.newReq(op, off, int64(job.BS))
				w.tokenAt = 0
				if !isRead && st.writeGap > 0 {
					w.tokenAt = st.claimWriteToken(env.Now())
				}
			}
			if w.tokenAt > env.Now() {
				break // token still maturing
			}
			w.batch = append(w.batch, w.prepared)
			if w.prepared.Op == blockdev.ReqWrite && job.SyncEvery > 0 {
				w.writesSinceSync++
				if w.writesSinceSync >= job.SyncEvery {
					w.writesSinceSync = 0
					w.batch = append(w.batch, w.newReq(blockdev.ReqFlush, 0, 0))
				}
			}
			w.prepared = nil
		}
		if len(w.batch) > 0 {
			w.inflight += len(w.batch)
			w.q.Submit(w.batch...)
			w.batch = w.batch[:0]
		}
		if w.inflight == 0 && w.prepared == nil &&
			(st.issued >= st.opBudget || env.Now() >= st.deadline) {
			w.onExit()
			return
		}
		if w.inflight == 0 && w.prepared != nil && w.tokenAt > env.Now() {
			// Nothing in flight: sleep until the claimed token matures.
			env.Schedule(w.tokenAt-env.Now(), w.pumpFn)
			return
		}
		if w.kick.Fired() {
			// A completion arrived while the pump ran (a synchronous finish
			// during Submit): the process form's Wait would have returned
			// immediately, so take another pass instead of parking.
			w.kick.Reset()
			continue
		}
		// Park until a completion frees a slot or ends the run.
		w.kick.OnFire(w.pumpFn)
		return
	}
}

// Prepare sequentially fills [off, off+size) of dev with synthetic data at
// full device bandwidth and flushes — the paper's dataset preparation step
// before each read experiment.
func Prepare(p *sim.Proc, dev blockdev.Device, off, size int64) error {
	const chunk = 256 * 1024
	for done := int64(0); done < size; {
		n := int64(chunk)
		if size-done < n {
			n = size - done
		}
		if err := dev.Write(p, off+done, nil, n); err != nil {
			return err
		}
		done += n
	}
	return dev.Flush(p)
}
