package lightnvm

import (
	"errors"
	"fmt"

	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// ErrOutOfPartition is returned (per address) when a vector command
// touches a PU outside the submitting view's partition.
var ErrOutOfPartition = errors.New("lightnvm: address outside target partition")

// MediaView is a target's window onto a device: the PU range Reserve
// granted it, addressed with partition-relative PU indices 0..PUs()-1. All
// target device I/O goes through the view — Submit rejects any PPA whose
// PU lies outside the partition, so a target can never touch a sibling's
// media — and the view translates between relative and global PU
// numbering, which lets the target's internal structures (pblk's group
// table, lane spans, read fan-out lists) stay dense and partition-local.
//
// Views over the full device behave exactly like the raw device plus the
// bounds check, so a single-target setup is unchanged.
type MediaView struct {
	ln         *Device // the reserving device, for Release
	dev        *ocssd.Device
	fmtr       ppa.Format
	tag        string // reservation name
	begin, end int    // global PU range [begin, end)
	full       bool   // covers the whole device: Submit skips the bounds loop
}

// Release gives the view's PUs and name back to the device; a later
// Reserve may claim them at once. It is idempotent. The view must carry
// no further I/O: its owner has stopped, shut down or crashed.
func (v *MediaView) Release() {
	d := v.ln
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.owners[v.begin] != v {
		return // already released
	}
	for pu := v.begin; pu < v.end; pu++ {
		d.owners[pu] = nil
	}
}

// Name returns the name the view was reserved under.
func (v *MediaView) Name() string { return v.tag }

// Range returns the partition's global PU range.
func (v *MediaView) Range() PURange { return PURange{v.begin, v.end} }

// PUs returns the number of parallel units in the partition.
func (v *MediaView) PUs() int { return v.end - v.begin }

// Geometry returns the device geometry. Per-PU dimensions (planes, blocks,
// pages, sectors) apply to the partition as-is; device-wide counts
// (Channels, TotalPUs) describe the whole device — use PUs() for the
// partition's parallelism.
func (v *MediaView) Geometry() ppa.Geometry { return v.dev.Geometry() }

// Format returns the device's PPA bit layout.
func (v *MediaView) Format() ppa.Format { return v.fmtr }

// SectorOOBSize returns the per-sector share of the page OOB area.
func (v *MediaView) SectorOOBSize() int { return v.dev.SectorOOBSize() }

// Env returns the simulation environment the device runs in.
func (v *MediaView) Env() *sim.Env { return v.dev.Env() }

// GlobalPU translates a partition-relative PU index to the device-wide
// index.
func (v *MediaView) GlobalPU(rel int) int { return v.begin + rel }

// RelativePU translates a device-wide PU index into the partition.
func (v *MediaView) RelativePU(gpu int) int { return gpu - v.begin }

// PUAddr returns the channel and in-channel PU for a partition-relative
// PU index, for building PPAs.
func (v *MediaView) PUAddr(rel int) (ch, pu int) { return v.fmtr.PUAddr(v.begin + rel) }

// Die exposes the NAND die behind a partition-relative PU index, used by
// host recovery scans and tests; production datapaths go through Submit.
func (v *MediaView) Die(rel int) *nand.Die { return v.dev.Die(v.begin + rel) }

// Contains reports whether a lies inside the partition.
func (v *MediaView) Contains(a ppa.Addr) bool {
	gpu := v.fmtr.GlobalPU(a)
	return gpu >= v.begin && gpu < v.end
}

// admit is the subsystem's one partition check: a command touching any PU
// outside the view gets back a completion that fails every address with
// ErrOutOfPartition, and never reaches the device. No accessor hands a
// target the device itself, so every command a target issues passes here.
func (v *MediaView) admit(cmd *ocssd.Vector) (rejected *ocssd.Completion) {
	if v.full {
		// Whole-device view: the partition check cannot fail and the
		// device validates raw bounds itself, so the single-target fast
		// path pays nothing per address.
		return nil
	}
	return v.outside(cmd)
}

// outside is admit's per-address check, kept out of line so that admit
// inlines into Submit and Do.
func (v *MediaView) outside(cmd *ocssd.Vector) *ocssd.Completion {
	for _, a := range cmd.Addrs {
		if gpu := v.fmtr.GlobalPU(a); gpu < v.begin || gpu >= v.end {
			comp := &ocssd.Completion{Errs: make([]error, len(cmd.Addrs))}
			err := fmt.Errorf("%w: %v (pu %d outside %v)", ErrOutOfPartition, a, gpu, v.Range())
			for i := range comp.Errs {
				comp.Errs[i] = err
				comp.Status |= 1 << uint(i)
			}
			comp.Done = v.dev.Env().Now()
			return comp
		}
	}
	return nil
}

// Submit issues a vector command asynchronously through the partition; a
// command admit rejects completes on the next event of the same instant.
func (v *MediaView) Submit(cmd *ocssd.Vector, done func(*ocssd.Completion)) {
	if comp := v.admit(cmd); comp != nil {
		v.dev.Env().Schedule(0, func() { done(comp) })
		return
	}
	v.dev.Submit(cmd, done)
}

// Do submits cmd through the partition and blocks the calling process
// until completion.
func (v *MediaView) Do(p *sim.Proc, cmd *ocssd.Vector) *ocssd.Completion {
	if comp := v.admit(cmd); comp != nil {
		p.Yield()
		return comp
	}
	return v.dev.Do(p, cmd)
}

// Recycle returns a completion to the device pool.
func (v *MediaView) Recycle(c *ocssd.Completion) { v.dev.Recycle(c) }

// Crash simulates power loss as seen by this partition: the volatile
// controller state of the view's PUs is dropped, whatever the view's width
// (a full-device view crashes every PU). The host state that held the
// reservation is gone with the power, so Crash also releases the view.
func (v *MediaView) Crash() {
	v.dev.CrashPUs(v.begin, v.end)
	v.Release()
}
