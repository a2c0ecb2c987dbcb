// Package lightnvm is the open-channel SSD subsystem (paper §4.1): the
// layer between the device driver (internal/ocssd) and high-level targets.
//
// It registers devices, exposes their geometry to targets and tools (the
// kernel's nvm_dev / sysfs role), and acts as the media manager: every
// target instance is created over a parallel-unit range (the kernel's
// `nvm create` lun_begin/lun_end), the device tracks per-PU ownership so
// ranges never overlap, and each target receives a MediaView — a partition
// of the device it addresses with PU-relative indices. Several targets can
// therefore coexist on one device over disjoint PU ranges, each with its
// own FTL state, which is what makes the paper's Figure 8 isolation story
// deployable at the target level. Targets are registered by name in a
// global registry, the analogue of the kernel's target-type list; the pblk
// package registers itself on import, and this package registers "raw"
// (raw.go), the FTL-less target: a partition as a block device behind a
// static LBA → PPA map, which is how fio drives direct PPA I/O.
package lightnvm

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// PURange is a half-open range [Begin, End) of device-wide (global) PU
// indices, the subsystem's lun_begin/lun_end. The zero value means "the
// whole device" — or, on re-creation of a target whose name has a recorded
// partition, "the range this target had before".
type PURange struct {
	Begin, End int
}

// IsZero reports whether the range is the unspecified zero value.
func (r PURange) IsZero() bool { return r.Begin == 0 && r.End == 0 }

// Width returns the number of PUs in the range.
func (r PURange) Width() int { return r.End - r.Begin }

func (r PURange) String() string { return fmt.Sprintf("[%d,%d)", r.Begin, r.End) }

// targetEntry is one target instance slot: the running target (nil while a
// CreateTarget is still constructing it) and the PU range it owns.
type targetEntry struct {
	tgt Target
	r   PURange
}

// Device is a registered open-channel SSD, the subsystem's nvm_dev.
type Device struct {
	name string
	dev  *ocssd.Device

	mu      sync.Mutex
	targets map[string]*targetEntry
	// owners maps every global PU to the target instance holding it, ""
	// when free. CreateTarget reserves exclusively; RemoveTarget releases.
	owners []string
	// parts is the partition table: instance name -> last reserved range.
	// Entries persist across RemoveTarget (within this Device's lifetime),
	// so a target re-created with a zero PURange gets its old range back.
	parts map[string]PURange
	// guard, when enabled, tags each created target's PUs on the ocssd
	// device with the instance name, so any Submit reaching a foreign
	// partition — a translation bug — panics at the device boundary.
	guard bool
}

// Register wraps an ocssd device into the subsystem. The handle is the
// only reference the subsystem keeps: a caller that drops it releases the
// device tree.
func Register(name string, dev *ocssd.Device) *Device {
	return &Device{
		name:    name,
		dev:     dev,
		targets: make(map[string]*targetEntry),
		owners:  make([]string, dev.Geometry().TotalPUs()),
		parts:   make(map[string]PURange),
	}
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
// device: every target created afterwards gets its PUs tagged with its
// instance name, and any vector command carrying a different tag panics.
// Debug aid for tests of the partition translation; off by default.
func (d *Device) EnableOwnerGuard() {
	d.mu.Lock()
	d.guard = true
	d.mu.Unlock()
}

// Target is a high-level I/O interface instantiated on a device (paper
// §4.1, layer 3). Concrete targets usually also implement blockdev.Device
// (pblk) or expose an application-specific API.
type Target interface {
	// TargetName returns the instance name.
	TargetName() string
	// Stop quiesces the target and releases its device resources. It must
	// be called from simulation context.
	Stop(p *sim.Proc) error
}

// TargetType creates target instances on a partition of a device. cfg is
// target specific; pblk takes *pblk.Config.
type TargetType func(p *sim.Proc, view *MediaView, instanceName string, cfg any) (Target, error)

var (
	regMu    sync.Mutex
	registry = make(map[string]TargetType)
)

// RegisterTargetType adds a target type to the global registry. It panics
// on duplicates, mirroring kernel module registration.
func RegisterTargetType(name string, t TargetType) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("lightnvm: duplicate target type %q", name))
	}
	registry[name] = t
}

// resolveRange normalizes a creation range under d.mu: a zero range means
// the instance's recorded partition when one exists, the whole device
// otherwise; explicit ranges are bounds-checked.
func (d *Device) resolveRange(instanceName string, r PURange) (PURange, error) {
	total := d.dev.Geometry().TotalPUs()
	if r.IsZero() {
		if prev, ok := d.parts[instanceName]; ok {
			return prev, nil
		}
		return PURange{0, total}, nil
	}
	if r.Begin < 0 || r.End > total || r.Begin >= r.End {
		return r, fmt.Errorf("lightnvm: PU range %v invalid for %d-PU device", r, total)
	}
	return r, nil
}

// CreateTarget instantiates a target of the given type on a PU range of
// the device (the `nvm create` ioctl with lun_begin/lun_end). The range
// must not overlap any existing target's partition; its PUs are reserved
// exclusively until RemoveTarget releases them. A zero PURange selects
// the instance's recorded partition (if this name was created before
// within this run) or the whole device. CreateTarget must run in
// simulation context because target initialization (e.g. pblk recovery
// scans) performs device I/O.
//
// The instance name and its PUs are reserved under the lock before
// construction runs: target init yields (it performs device I/O), so two
// concurrent creates of the same name or range would otherwise both pass
// the checks. A reservation with a nil target marks construction in
// flight; it is released if construction fails.
func (d *Device) CreateTarget(p *sim.Proc, typeName, instanceName string, r PURange, cfg any) (Target, error) {
	regMu.Lock()
	t, ok := registry[typeName]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("lightnvm: unknown target type %q", typeName)
	}
	d.mu.Lock()
	if _, dup := d.targets[instanceName]; dup {
		d.mu.Unlock()
		return nil, fmt.Errorf("lightnvm: target %q already exists on %s", instanceName, d.name)
	}
	rr, err := d.resolveRange(instanceName, r)
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	for pu := rr.Begin; pu < rr.End; pu++ {
		if own := d.owners[pu]; own != "" {
			d.mu.Unlock()
			return nil, fmt.Errorf("lightnvm: PU range %v overlaps target %q (PU %d) on %s", rr, own, pu, d.name)
		}
	}
	entry := &targetEntry{r: rr} // reserve the name and the PUs
	d.targets[instanceName] = entry
	for pu := rr.Begin; pu < rr.End; pu++ {
		d.owners[pu] = instanceName
	}
	guard := d.guard
	d.mu.Unlock()
	if guard {
		for pu := rr.Begin; pu < rr.End; pu++ {
			d.dev.SetPUOwner(pu, instanceName)
		}
	}
	view := d.newView(instanceName, rr)
	tgt, err := t(p, view, instanceName, cfg)
	if err != nil {
		d.release(instanceName, rr, guard)
		return nil, fmt.Errorf("lightnvm: create %s target %q: %w", typeName, instanceName, err)
	}
	d.mu.Lock()
	entry.tgt = tgt
	d.parts[instanceName] = rr
	d.mu.Unlock()
	return tgt, nil
}

// release drops a target's name and PU reservation (create failure or
// RemoveTarget); the partition-table record is kept.
func (d *Device) release(instanceName string, r PURange, guard bool) {
	d.mu.Lock()
	delete(d.targets, instanceName)
	d.mu.Unlock()
	d.releasePUs(instanceName, r, guard)
}

// releasePUs frees a range's ownership entries and guard tags.
func (d *Device) releasePUs(instanceName string, r PURange, guard bool) {
	d.mu.Lock()
	for pu := r.Begin; pu < r.End; pu++ {
		if d.owners[pu] == instanceName {
			d.owners[pu] = ""
		}
	}
	d.mu.Unlock()
	if guard {
		for pu := r.Begin; pu < r.End; pu++ {
			d.dev.ClearPUOwner(pu)
		}
	}
}

// RemoveTarget stops and unregisters a target instance, releasing its PU
// reservation. The name is dropped immediately, but the PUs stay owned
// until Stop returns — Stop performs device I/O (GC drain, flushes), and
// handing the range to a new tenant while the old target is still
// programming it would let two FTLs write the same blocks. The
// partition-table entry survives, so re-creating the same instance name
// with a zero range restores its old partition.
func (d *Device) RemoveTarget(p *sim.Proc, instanceName string) error {
	d.mu.Lock()
	entry, ok := d.targets[instanceName]
	if ok && entry.tgt == nil {
		d.mu.Unlock()
		return fmt.Errorf("lightnvm: target %q on %s is still being created", instanceName, d.name)
	}
	if ok {
		delete(d.targets, instanceName)
	}
	guard := d.guard
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("lightnvm: no target %q on %s", instanceName, d.name)
	}
	err := entry.tgt.Stop(p)
	d.releasePUs(instanceName, entry.r, guard)
	return err
}

// Targets lists target instance names on the device, sorted. Names only
// reserved by an in-flight CreateTarget are excluded.
func (d *Device) Targets() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.targets))
	for n, e := range d.targets {
		if e.tgt == nil {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Target returns a live target instance by name.
func (d *Device) Target(name string) (Target, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.targets[name]
	if !ok || e.tgt == nil {
		return nil, false
	}
	return e.tgt, true
}

// TargetRange returns the PU range a live target instance owns.
func (d *Device) TargetRange(name string) (PURange, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.targets[name]
	if !ok || e.tgt == nil {
		return PURange{}, false
	}
	return e.r, true
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

// Partition is one row of the device partition map: a PU range and the
// state of the instance holding (or remembering) it.
type Partition struct {
	Name   string
	Range  PURange
	Active bool
	// Creating marks a reservation whose CreateTarget is still
	// constructing the target: the PUs are already exclusively held.
	Creating bool
}

// Partitions returns the device partition table — every recorded range
// plus in-flight creation reservations — sorted by range start, then
// name. This is the operator view of how the PU space is carved up;
// every row's PUs are unavailable to a new create except rows that are
// neither Active nor Creating (recorded, unmounted).
func (d *Device) Partitions() []Partition {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Partition, 0, len(d.parts)+1)
	for name, r := range d.parts {
		e, live := d.targets[name]
		if live && e.tgt == nil {
			continue // in-flight re-create: shown from the reservation below
		}
		out = append(out, Partition{Name: name, Range: r, Active: live})
	}
	for name, e := range d.targets {
		if e.tgt == nil {
			out = append(out, Partition{Name: name, Range: e.r, Creating: true})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Range.Begin != out[j].Range.Begin {
			return out[i].Range.Begin < out[j].Range.Begin
		}
		return out[i].Name < out[j].Name
	})
	return out
}
