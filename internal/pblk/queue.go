package pblk

import (
	"repro/internal/blockdev"
	"repro/internal/sim"
)

// pblk's datapath, the one issue function behind both its queue pairs and
// its blocking Read/Write/Flush/Trim: reads fan out through the device's
// asynchronous vector submission, writes complete on ring-buffer admission
// (paper §4.2.1, producers), and flushes ride the flush-barrier machinery.
// The queue state machine and the blocking call live in blockdev (NewQueue,
// SyncAdapter); this file supplies the per-operation issue paths.
//
// Write admission is a continuation pump, not a process: it admits whole
// requests in FIFO order, charging the host write overhead one request at
// a time — the paper's producers reserve ring space for a whole bio before
// copying it in — and when the ring is full or the rate limiter withholds
// entries it parks as a callback on the ring's space event instead of
// blocking a goroutine. Steady-state I/O therefore spawns nothing.

// OpenQueue implements blockdev.QueueProvider. The queue completes on
// pblk's own simulation environment; env is accepted for interface
// symmetry and may be nil.
func (k *Pblk) OpenQueue(env *sim.Env, depth int) blockdev.Queue {
	return blockdev.NewQueue(k.env, k, depth, k.IssueAsync)
}

// Blocking blockdev.Device calls, on the same issue function.

// Read implements blockdev.Device.
func (k *Pblk) Read(p *sim.Proc, off int64, buf []byte, length int64) error {
	return k.blk.Read(p, off, buf, length)
}

// Write implements blockdev.Device: it returns once the sectors are in the
// ring buffer, so it blocks only while the buffer is full or the rate
// limiter withholds user entries.
func (k *Pblk) Write(p *sim.Proc, off int64, buf []byte, length int64) error {
	return k.blk.Write(p, off, buf, length)
}

// Flush implements blockdev.Device (paper §4.2.1): all data buffered at
// call time is forced to media, padding the final flash page if needed.
func (k *Pblk) Flush(p *sim.Proc) error { return k.blk.Flush(p) }

// Trim implements blockdev.Device: mappings are dropped host-side; the
// freed sectors become garbage for GC.
func (k *Pblk) Trim(p *sim.Proc, off, length int64) error {
	return k.blk.Trim(p, off, length)
}

// IssueAsync is pblk's blockdev.IssueFunc: it starts one pre-validated
// request. It is exported for embedding devices (nvmedev wraps it behind
// its firmware command handling). done runs in simulation context once the
// request finishes; req.Err is set by then.
func (k *Pblk) IssueAsync(req *blockdev.Request, done func(*blockdev.Request)) {
	switch req.Op {
	case blockdev.ReqRead:
		k.startReadReq(req, done)
	case blockdev.ReqWrite:
		k.admitQ.Push(pendingWrite{req: req, done: done})
		if !k.admitActive {
			k.admitActive = true
			if k.admitStepFn == nil {
				k.admitStepFn = k.admitStep
				k.admitStartFn = k.admitStart
			}
			k.env.Schedule(0, k.admitStartFn)
		}
	case blockdev.ReqFlush:
		k.startFlush(func(err error) {
			req.Err = err
			done(req)
		})
	case blockdev.ReqTrim:
		k.env.Schedule(k.cfg.HostWriteOverhead, func() {
			req.Err = k.trimNow(req.Off, req.Length)
			done(req)
		})
	default:
		k.env.Schedule(0, func() { done(req) })
	}
}

// pendingWrite is one queue write awaiting ring admission.
type pendingWrite struct {
	req  *blockdev.Request
	done func(*blockdev.Request)
}

// admitStart pops queued writes in FIFO order and begins admission of the
// first admissible one, charging it the host write overhead. It runs in
// simulation context.
func (k *Pblk) admitStart() {
	for {
		if k.admitQ.Len() == 0 {
			k.admitActive = false
			return
		}
		pw := k.admitQ.Pop()
		k.admitCur = pw
		if k.stopping {
			pw.req.Err = ErrStopped
			pw.done(pw.req)
			continue
		}
		if err := blockdev.CheckRange(k, pw.req.Off, pw.req.Buf, pw.req.Length); err != nil {
			pw.req.Err = err
			pw.done(pw.req)
			continue
		}
		k.admitSector = 0
		k.env.Schedule(k.cfg.HostWriteOverhead, k.admitStepFn)
		return
	}
}

// admitStep admits sectors of the current write into the ring until the
// request completes or admission blocks; when blocked it re-arms itself on
// the ring's space event and yields to the scheduler.
func (k *Pblk) admitStep() {
	pw := k.admitCur
	ss := int64(k.geo.SectorSize)
	n := pw.req.Length / ss
	for k.admitSector < n {
		if k.stopping {
			pw.req.Err = ErrStopped
			pw.done(pw.req)
			k.admitStart()
			return
		}
		if !k.admitReady() {
			k.rb.waitSpaceFn(k.admitStepFn)
			return
		}
		i := k.admitSector
		lba := pw.req.Off/ss + i
		var data []byte
		if pw.req.Buf != nil {
			data = k.copySector(pw.req.Buf[i*ss : (i+1)*ss])
		}
		pos := k.produce(lba, data, false, -1, pw.req.Hint)
		k.installCacheMapping(lba, pos)
		k.Stats.UserWrites++
		k.admitSector++
	}
	k.kickWriters()
	pw.req.Err = nil
	pw.done(pw.req)
	k.admitStart()
}

// admitReady is the user-admission condition (paper §4.2.4: "entries are
// reserved as a function of the feedback loop"): true when the ring has
// space and the rate limiter admits another user entry. Admission also
// pauses while the write lanes are being rebuilt (SetActivePUs), so no
// entry is dispatched onto a quiescing lane. On failure it has already
// kicked GC and the lane writers, so the pump only has to park on the
// ring's space event.
func (k *Pblk) admitReady() bool {
	if !k.rebuilding {
		quota := k.rb.capacity()
		if !k.cfg.DisableRateLimiter {
			quota = k.rl.userQuota
		}
		// Hard floor independent of the PID output: when free groups fall
		// to the lane reserve, user I/O stops entirely until GC recovers
		// ("user I/Os will be completely disabled until enough free blocks
		// are available").
		if k.freeGroups <= k.emergencyReserve() {
			quota = 0
			k.maybeKickGC()
		}
		if k.rb.free() >= 1 && k.rb.userIn < quota {
			return true
		}
		k.maybeKickGC()
	}
	k.kickWriters()
	return false
}

// startFlush registers a flush barrier over all data admitted so far; fin
// runs in simulation context once the ring tail passes it (paper §4.2.1,
// with padding to full flash pages).
func (k *Pblk) startFlush(fin func(error)) {
	if k.stopping {
		k.env.Schedule(0, func() { fin(ErrStopped) })
		return
	}
	k.Stats.Flushes++
	// Retried (write-failed) sectors are still ring entries below the
	// tail-stop, so an empty ring implies nothing awaits resubmission.
	if k.rb.inRing() == 0 {
		k.env.Schedule(0, func() { fin(nil) })
		return
	}
	req := flushReq{pos: k.rb.head - 1, ev: k.events.Get()}
	k.flushes.Push(req)
	k.kickWriters()
	req.ev.OnFire(func() { fin(nil) })
}
