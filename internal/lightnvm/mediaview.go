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
// addresses a PU outside the submitting view's partition.
var ErrOutOfPartition = errors.New("lightnvm: address outside target partition")

// MediaView is a target's window onto a device: the PU range Reserve
// granted it. A target builds, stores and decodes only target addresses:
// the device's own ppa.Format, with the PU index (Format.PUIndex) counting
// 0..PUs()-1 through the partition. Only Range() states where the
// partition lies on the device.
//
// All target device I/O goes through the view, and Submit and Do are the
// one place a target address becomes a device address (toDevice). A view
// over the whole device is the identity, so a single-target setup pays
// nothing per address.
type MediaView struct {
	ln         *Device // the reserving device, for Release
	dev        *ocssd.Device
	fmtr       ppa.Format
	tag        string // reservation name
	begin, end int    // device PU range [begin, end)
	ppc        int    // the device's PUs per channel
	full       bool   // covers the whole device: Submit skips toDevice
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

// Range returns the partition's device PU range.
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

// Die exposes the NAND die behind a partition-relative PU index, used by
// host recovery scans and tests; production datapaths go through Submit.
func (v *MediaView) Die(rel int) *nand.Die { return v.dev.Die(v.begin + rel) }

// toDevice is the subsystem's one partition check and its one PU
// translation, run on a partial view. Each address whose PU index is below
// PUs() and whose PU field is below PUsPerChannel (a larger one would alias
// the next channel) has its Ch and PU rewritten in place to device PU
// begin + index. At the first address that fails, toDevice restores those
// it rewrote and returns a completion that fails every address with
// ErrOutOfPartition; the command never reaches the device. No accessor
// hands a target the device itself, so every command a target issues
// passes here.
//
// Submit and Do put the target form back (toTarget) once the device has
// the command, so completions and the code that reads addresses back off a
// vector (pblk's scrub and write-error paths) see target addresses only.
// That is sound because the device reads an address's Ch and PU only
// inside Submit (ocssd's validate).
func (v *MediaView) toDevice(cmd *ocssd.Vector) (rejected *ocssd.Completion) {
	for i := range cmd.Addrs {
		a := &cmd.Addrs[i]
		pu := v.fmtr.PUIndex(*a)
		if uint(pu) >= uint(v.end-v.begin) || uint(a.PU) >= uint(v.ppc) {
			err := fmt.Errorf("%w: %v (pu %d outside a %d-PU view)", ErrOutOfPartition, *a, pu, v.end-v.begin)
			v.toTarget(cmd.Addrs[:i])
			comp := &ocssd.Completion{Errs: make([]error, len(cmd.Addrs))}
			for i := range comp.Errs {
				comp.Errs[i] = err
				comp.Status |= 1 << uint(i)
			}
			comp.Done = v.dev.Env().Now()
			return comp
		}
		a.Ch, a.PU = v.fmtr.PUAddr(v.begin + pu)
	}
	return nil
}

// toTarget undoes toDevice on addrs.
func (v *MediaView) toTarget(addrs []ppa.Addr) {
	for i := range addrs {
		a := &addrs[i]
		a.Ch, a.PU = v.fmtr.PUAddr(v.fmtr.PUIndex(*a) - v.begin)
	}
}

// Submit issues a vector command asynchronously through the partition; a
// command the view rejects completes on the next event of the same
// instant. The device never completes a command inside its Submit, so done
// sees the target addresses.
func (v *MediaView) Submit(cmd *ocssd.Vector, done func(*ocssd.Completion)) {
	if v.full {
		v.dev.Submit(cmd, done)
		return
	}
	if comp := v.toDevice(cmd); comp != nil {
		v.dev.Env().Schedule(0, func() { done(comp) })
		return
	}
	v.dev.Submit(cmd, done)
	v.toTarget(cmd.Addrs)
}

// Do submits cmd through the partition and blocks the calling process
// until completion; the addresses are back in target form when it returns.
func (v *MediaView) Do(p *sim.Proc, cmd *ocssd.Vector) *ocssd.Completion {
	if v.full {
		return v.dev.Do(p, cmd)
	}
	if comp := v.toDevice(cmd); comp != nil {
		p.Yield()
		return comp
	}
	c := v.dev.Do(p, cmd)
	v.toTarget(cmd.Addrs)
	return c
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
