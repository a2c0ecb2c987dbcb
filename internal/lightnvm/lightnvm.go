// Package lightnvm is the open-channel SSD subsystem (paper §4.1): the
// layer between the device driver (internal/ocssd) and high-level targets.
//
// It registers devices, exposes their geometry to targets and tools (the
// kernel's nvm_dev / sysfs role), and acts as the media manager: a target's
// media is a reservation. Device.Reserve hands out a MediaView over a
// parallel-unit range (the kernel's `nvm create` lun_begin/lun_end) that
// no other view may overlap, addressed with PU-relative indices, and the
// view gives its PUs back when its target stops, shuts down or crashes.
// Several targets can therefore coexist on one device over disjoint PU
// ranges, each with its own FTL state, which is what makes the paper's
// Figure 8 isolation story deployable at the target level. Each target
// type has one typed constructor on a reserved view: pblk.NewView (or
// pblk.New, which reserves the whole device) and NewRaw (raw.go), the
// FTL-less target: a partition as a block device behind a static LBA →
// PPA map, which is how fio drives direct PPA I/O.
package lightnvm

import (
	"fmt"
	"sync"

	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// PURange is a half-open range [Begin, End) of device-wide (global) PU
// indices, the subsystem's lun_begin/lun_end. The zero value means the
// whole device.
type PURange struct {
	Begin, End int
}

// IsZero reports whether the range is the unspecified zero value.
func (r PURange) IsZero() bool { return r.Begin == 0 && r.End == 0 }

// Width returns the number of PUs in the range.
func (r PURange) Width() int { return r.End - r.Begin }

func (r PURange) String() string { return fmt.Sprintf("[%d,%d)", r.Begin, r.End) }

// Device is a registered open-channel SSD, the subsystem's nvm_dev.
type Device struct {
	name string
	dev  *ocssd.Device

	mu sync.Mutex
	// owners maps every global PU to the live view reserving it, nil when
	// free. Reserve fills a range; MediaView.Release empties it.
	owners []*MediaView
	// guard, when enabled, tags each reserved PU on the ocssd device with
	// the view's name, so any Submit reaching a foreign partition — a
	// translation bug — panics at the device boundary.
	guard bool
}

// Register wraps an ocssd device into the subsystem. The handle is the
// only reference the subsystem keeps: a caller that drops it releases the
// device tree.
func Register(name string, dev *ocssd.Device) *Device {
	return &Device{name: name, dev: dev, owners: make([]*MediaView, dev.Geometry().TotalPUs())}
}

// UnregisterAll does nothing: there is no device registry to empty. It
// remains for the benchmark module, which calls it between runs and which
// changes only in a PR of its own.
func UnregisterAll() {}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Geometry exposes the device geometry (sysfs analogue).
func (d *Device) Geometry() ppa.Geometry { return d.dev.Geometry() }

// Identify returns the device's full self-description.
func (d *Device) Identify() ocssd.Identify { return d.dev.Identify() }

// Raw returns the underlying device for targets issuing vector I/O.
func (d *Device) Raw() *ocssd.Device { return d.dev }

// Env returns the device's simulation environment.
func (d *Device) Env() *sim.Env { return d.dev.Env() }

// EnableOwnerGuard turns on the per-PU owner tags on the underlying
// device: every view reserved afterwards gets its PUs tagged with its
// name, and any vector command carrying a different tag panics. Debug aid
// for tests of the partition translation; off by default.
func (d *Device) EnableOwnerGuard() {
	d.mu.Lock()
	d.guard = true
	d.mu.Unlock()
}

// Reserve hands out a MediaView named name over PU range r (zero = the
// whole device), the only way to obtain one. The PUs are the view's alone
// until it is released: a target's Stop, Shutdown and Crash release its
// view, and a constructor that fails releases the view it was given.
// Reserve rejects an invalid range, a name a live view already holds, and
// any PU another live view holds. The reservation takes effect before the
// caller runs a target constructor, whose device I/O yields, so two
// concurrent mounts of one name or one range cannot both pass the checks.
func (d *Device) Reserve(name string, r PURange) (*MediaView, error) {
	total := d.dev.Geometry().TotalPUs()
	if r.IsZero() {
		r = PURange{0, total}
	}
	if r.Begin < 0 || r.End > total || r.Begin >= r.End {
		return nil, fmt.Errorf("lightnvm: PU range %v invalid for %d-PU device", r, total)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for pu, own := range d.owners {
		switch {
		case own == nil:
		case own.tag == name:
			return nil, fmt.Errorf("lightnvm: target %q already exists on %s", name, d.name)
		case pu >= r.Begin && pu < r.End:
			return nil, fmt.Errorf("lightnvm: PU range %v overlaps target %q (PU %d) on %s", r, own.tag, pu, d.name)
		}
	}
	v := &MediaView{
		ln: d, dev: d.dev, fmtr: d.dev.Format(), tag: name,
		begin: r.Begin, end: r.End, full: r.Width() == total,
	}
	for pu := r.Begin; pu < r.End; pu++ {
		d.owners[pu] = v
		if d.guard {
			d.dev.SetPUOwner(pu, name)
		}
	}
	return v, nil
}

// Wear aggregates media wear over a PU range — the media manager's
// per-tenant wear accounting. TotalPE is the sum of block P/E cycles over
// the range, MaxPE the worst single block, BadBlocks the grown + factory
// bad count. Divided by the range width these tell the operator which
// tenant is burning which partition.
type Wear struct {
	PUs       int
	TotalPE   int64
	MaxPE     int
	BadBlocks int
}

// WearOf aggregates wear counters over a PU range straight from the dies;
// it reads device state only, so it is safe outside simulation context.
func (d *Device) WearOf(r PURange) Wear {
	w := Wear{PUs: r.Width()}
	for pu := r.Begin; pu < r.End; pu++ {
		total, max, bad := d.dev.Die(pu).WearSummary()
		w.TotalPE += total
		if max > w.MaxPE {
			w.MaxPE = max
		}
		w.BadBlocks += bad
	}
	return w
}
