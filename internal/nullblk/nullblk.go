// Package nullblk provides a null block device analogous to Linux null_blk:
// I/Os complete after a fixed configurable latency and carry no storage.
// The paper uses it to measure pblk's host-side CPU and latency overhead
// (§5.1). No experiment here does: pblk's host cost is a charged constant
// (DESIGN.md). The benchmark's host-cost ladder runs it as its bottom rung,
// the stack with no device work, and tests use it as a device that keeps no
// data.
package nullblk

import (
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// Config sets the null device shape.
type Config struct {
	SectorSize   int
	CapacityB    int64
	ReadLatency  time.Duration
	WriteLatency time.Duration
}

// DefaultConfig approximates the paper's null block device baseline
// (~2 µs per request).
func DefaultConfig() Config {
	return Config{
		SectorSize:   4096,
		CapacityB:    1 << 34,
		ReadLatency:  1970 * time.Nanosecond, // paper §5.1: 1.97 µs read without pblk
		WriteLatency: 2000 * time.Nanosecond, // paper §5.1: 2 µs write without pblk
	}
}

// Device is a latency-only block device. It retains no data: reads return
// zeros.
type Device struct {
	cfg Config
	// blk carries the blocking calls. New has no environment to bind it to,
	// so it is built over the first blocking caller's.
	blk *blockdev.SyncAdapter
	// Ops counts completed requests.
	Reads, Writes, Flushes int64
}

var _ blockdev.Device = (*Device)(nil)

// New returns a null device.
func New(cfg Config) *Device { return &Device{cfg: cfg} }

// SectorSize implements blockdev.Device.
func (d *Device) SectorSize() int { return d.cfg.SectorSize }

// Capacity implements blockdev.Device.
func (d *Device) Capacity() int64 { return d.cfg.CapacityB }

// newIssue returns the device's datapath on env. Completions are pure
// scheduled events on the virtual clock — no simulation process per
// request and no per-request closures (the completion callbacks are bound
// on the first call and carry the request as the scheduled argument) — so
// a single submitter drives any queue depth with zero steady-state
// allocations in the device.
func (d *Device) newIssue(env *sim.Env) blockdev.IssueFunc {
	var readDone, writeDone, flushDone, trimDone func(any)
	return func(req *blockdev.Request, done func(*blockdev.Request)) {
		if readDone == nil {
			readDone = func(a any) {
				r := a.(*blockdev.Request)
				clear(r.Buf)
				d.Reads++
				done(r)
			}
			writeDone = func(a any) {
				d.Writes++
				done(a.(*blockdev.Request))
			}
			flushDone = func(a any) {
				d.Flushes++
				done(a.(*blockdev.Request))
			}
			trimDone = func(a any) { done(a.(*blockdev.Request)) }
		}
		switch req.Op {
		case blockdev.ReqRead:
			env.ScheduleArg(d.cfg.ReadLatency, readDone, req)
		case blockdev.ReqWrite:
			env.ScheduleArg(d.cfg.WriteLatency, writeDone, req)
		case blockdev.ReqFlush:
			env.ScheduleArg(0, flushDone, req)
		case blockdev.ReqTrim:
			env.ScheduleArg(0, trimDone, req)
		}
	}
}

// OpenQueue implements blockdev.QueueProvider.
func (d *Device) OpenQueue(env *sim.Env, depth int) blockdev.Queue {
	return blockdev.NewQueue(env, d, depth, d.newIssue(env))
}

func (d *Device) sync(p *sim.Proc) *blockdev.SyncAdapter {
	if d.blk == nil {
		d.blk = blockdev.NewSyncAdapter(p.Env(), d, d.newIssue(p.Env()))
	}
	return d.blk
}

// Read implements blockdev.Device.
func (d *Device) Read(p *sim.Proc, off int64, buf []byte, length int64) error {
	return d.sync(p).Read(p, off, buf, length)
}

// Write implements blockdev.Device.
func (d *Device) Write(p *sim.Proc, off int64, buf []byte, length int64) error {
	return d.sync(p).Write(p, off, buf, length)
}

// Flush implements blockdev.Device.
func (d *Device) Flush(p *sim.Proc) error { return d.sync(p).Flush(p) }

// Trim implements blockdev.Device.
func (d *Device) Trim(p *sim.Proc, off, length int64) error {
	return d.sync(p).Trim(p, off, length)
}
