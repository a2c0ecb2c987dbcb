package volume

import (
	"time"

	"repro/internal/sim"
)

// RebuildConfig tunes the online rebuild engine.
type RebuildConfig struct {
	// CopyChunk is the copy unit in bytes (default 1 MB). Foreground
	// writes and trims overlapping the chunk currently being copied park
	// until the copy window moves past them.
	CopyChunk int64
	// RateMBps caps the rebuild copy rate (decimal MB/s of reconstructed
	// data). 0 disables the limiter: the rebuild runs as fast as the
	// spare programs, at the cost of foreground tail latency.
	RateMBps float64
}

func (c RebuildConfig) withDefaults() RebuildConfig {
	if c.CopyChunk == 0 {
		c.CopyChunk = 1 << 20
	}
	return c
}

// rebuild is one column's online rebuild: a process that walks the member
// address space, reads each chunk from a surviving replica, and writes it
// to the spare. The cursor marks the synced prefix: foreground writes and
// trims behind it fan out to the spare too, those ahead of it are left for
// the copy loop, and those into the active copy window park until the
// window advances — so the spare converges without ever taking a stale
// copy over a newer update.
type rebuild struct {
	v     *Volume
	set   *mirrorSet
	spare *Member
	cfg   RebuildConfig

	cursor             int64 // member-space offset synced so far
	activeLo, activeHi int64 // chunk being copied; empty when equal
	waiters            []*updateOp

	aborted bool
	ok      bool
	started time.Duration
	copied  int64
	proc    *sim.Proc // the engine; WaitRebuild joins its Done()
}

// startRebuild wires a rebuild onto the set and spawns its engine.
func (v *Volume) startRebuild(set *mirrorSet, sp *Member) {
	rb := &rebuild{v: v, set: set, spare: sp, cfg: v.rebuildCfg, started: v.env.Now()}
	set.rb = rb
	rb.proc = v.env.Go("volume.rebuild."+sp.name, rb.run)
}

// abort stops the engine at the next chunk boundary (CrashAll, or the
// volume losing its last source replica).
func (rb *rebuild) abort() { rb.aborted = true }

func (rb *rebuild) run(p *sim.Proc) {
	v := rb.v
	buf := make([]byte, rb.cfg.CopyChunk)
	for rb.cursor < v.colCap && !rb.aborted {
		lo := rb.cursor
		n := rb.cfg.CopyChunk
		if v.colCap-lo < n {
			n = v.colCap - lo
		}
		rb.activeLo, rb.activeHi = lo, lo+n
		err := rb.copyChunk(p, lo, buf[:n])
		rb.activeLo, rb.activeHi = 0, 0
		if err != nil || rb.aborted {
			rb.finish(false)
			return
		}
		rb.cursor = lo + n
		rb.copied += n
		rb.release()
		rb.pace(p)
	}
	if rb.aborted {
		rb.finish(false)
		return
	}
	// Make the reconstructed data durable before declaring the spare a
	// full replica.
	if err := rb.spare.sync.Flush(p); err != nil {
		rb.finish(false)
		return
	}
	rb.spare.state = StateHealthy
	v.stats.RebuildsDone++
	rb.finish(true)
}

// copyChunk reconstructs [lo, lo+len(buf)) onto the spare from the first
// surviving replica that can serve it.
func (rb *rebuild) copyChunk(p *sim.Proc, lo int64, buf []byte) error {
	n := int64(len(buf))
	err := ErrNoReplica
	for _, m := range rb.set.reps {
		if m.state != StateHealthy {
			continue
		}
		if err = m.sync.Read(p, lo, buf, n); err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	return rb.spare.sync.Write(p, lo, buf, n)
}

// finish tears the rebuild down and restarts any parked updates; on
// failure the spare keeps whatever it has but serves nothing until a
// later rebuild (or crash recovery restart) finishes the job.
func (rb *rebuild) finish(ok bool) {
	rb.ok = ok
	if rb.set.rb == rb {
		rb.set.rb = nil
	}
	rb.release()
}

// release restarts updates that parked behind the active copy window.
func (rb *rebuild) release() {
	ws := rb.waiters
	rb.waiters = nil
	for _, u := range ws {
		rb.v.env.ScheduleArg(0, startUpdateArg, u)
	}
}

// pace sleeps enough that the cumulative copy rate stays at or under the
// configured limit.
func (rb *rebuild) pace(p *sim.Proc) {
	if rb.cfg.RateMBps <= 0 || rb.aborted {
		return
	}
	target := time.Duration(float64(rb.copied) / (rb.cfg.RateMBps * 1e6) * float64(time.Second))
	elapsed := rb.v.env.Now() - rb.started
	if target > elapsed {
		p.Sleep(target - elapsed)
	}
}
