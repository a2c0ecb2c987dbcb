// Package volume is the multi-device volume manager: it owns a fleet of
// simulated open-channel SSDs inside one sim.Env — each member mounted as
// a full-device pblk target through the lightnvm media manager — and
// exposes virtual block targets over them through the standard
// blockdev.Device interface.
//
// A volume composes its members with RAID-0 striping (configurable chunk
// size), RAID-1 mirroring (write fan-out to every live replica, read
// balancing across replicas), or stripes of mirrors. Underneath, every
// member keeps its own FTL: per-device GC, rate limiting and scan recovery
// work unchanged, so the volume layer scales the paper's single-SSD stack
// to aggregate bandwidth and fault tolerance a single device cannot give.
//
// The fault model lives at this layer: whole-device death (ocssd.Fail,
// delivered through the device death hook) and seeded transient I/O
// failure injection per member. Mirrored volumes keep serving in degraded
// mode from the surviving replicas; a hot spare from the manager's pool
// can be attached and filled by the online rebuild engine (rebuild.go),
// whose copy rate is limited so foreground tail latency stays bounded.
package volume

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// Volume-layer errors.
var (
	// ErrInjected is the transient I/O failure delivered by the per-member
	// fault injector.
	ErrInjected = errors.New("volume: injected transient I/O failure")
	// ErrMemberDead reports a sub-request routed to a member that has died.
	ErrMemberDead = errors.New("volume: member device dead")
	// ErrNoReplica reports that no live replica remains for a range: the
	// volume has lost data (a whole mirror set, or any column of a pure
	// stripe).
	ErrNoReplica = errors.New("volume: no live replica for range")
)

// MemberState is a fleet device's health from the volume layer's view.
type MemberState int

// Member states.
const (
	// StateHealthy members serve reads and writes.
	StateHealthy MemberState = iota
	// StateRebuilding marks a spare being filled by the rebuild engine: it
	// takes writes and trims (behind the rebuild cursor) but serves no
	// reads.
	StateRebuilding
	// StateDead members are failed devices; nothing is routed to them.
	StateDead
	// StateSpare members sit in the manager's hot-spare pool.
	StateSpare
)

func (s MemberState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateRebuilding:
		return "rebuilding"
	case StateDead:
		return "dead"
	case StateSpare:
		return "spare"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Member is one fleet device: an ocssd device, its lightnvm registration,
// the pblk target mounted over the whole device, and the queue the volume
// layer routes sub-requests through.
type Member struct {
	id   int
	name string
	mgr  *Manager
	oc   *ocssd.Device
	ln   *lightnvm.Device
	tgt  *pblk.Pblk
	q    blockdev.Queue
	// sync makes blocking calls on q, bypassing the fault injector — the
	// path rebuild copies and resync repairs ride on.
	sync *blockdev.SyncAdapter

	state  MemberState
	vol    *Volume
	faults *Faults

	// Per-member routing counters, for the operator view.
	SubReads, SubWrites int64
	Injected            int64

	// one is the single-request scratch for queue submission: passing an
	// existing slice through the variadic Queue.Submit avoids the
	// per-call slice allocation an interface call can't elide.
	one [1]*blockdev.Request
}

// ID returns the member's fleet index.
func (m *Member) ID() int { return m.id }

// Name returns the member's device name.
func (m *Member) Name() string { return m.name }

// State returns the member's health.
func (m *Member) State() MemberState { return m.state }

// Device returns the member's raw ocssd device.
func (m *Member) Device() *ocssd.Device { return m.oc }

// Target returns the member's mounted pblk instance.
func (m *Member) Target() *pblk.Pblk { return m.tgt }

// Volume returns the volume the member belongs to, nil for pool spares.
func (m *Member) Volume() *Volume { return m.vol }

// submit routes one volume sub-request to the member, applying the death
// gate and the transient fault injector. It must run in simulation
// context; the request's OnComplete always fires asynchronously.
func (m *Member) submit(r *blockdev.Request) {
	if m.state == StateDead || m.state == StateSpare {
		r.Err = ErrMemberDead
		m.mgr.env.ScheduleArg(0, completeReqArg, r)
		return
	}
	if m.faults != nil && m.faults.trip(r.Op) {
		m.Injected++
		r.Err = ErrInjected
		m.mgr.env.ScheduleArg(0, completeReqArg, r)
		return
	}
	switch r.Op {
	case blockdev.ReqRead:
		m.SubReads++
	case blockdev.ReqWrite:
		m.SubWrites++
	}
	m.one[0] = r
	m.q.Submit(m.one[:]...)
}

// memberQueueDepth bounds sub-request concurrency per member queue.
const memberQueueDepth = 32

// Config assembles a fleet.
type Config struct {
	// Devices is the number of data devices; Spares adds hot spares to the
	// manager's pool on top.
	Devices int
	Spares  int
	// OCSSD is the per-device template; the zero value selects a compact
	// 8-PU device. Each member's media seed is decorrelated from Seed.
	OCSSD ocssd.Config
	// Pblk configures every member's FTL instance.
	Pblk pblk.Config
	// NamePrefix names the fleet's devices prefix0..prefixN-1
	// (default "fleet").
	NamePrefix string
	Seed       int64
}

// DefaultDeviceConfig is the compact per-member device used when
// Config.OCSSD is zero: 8 PUs across 4 channels, enough internal
// parallelism to show fleet scaling without Westlake's 128-PU cost.
func DefaultDeviceConfig(blocksPerPlane int) ocssd.Config {
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	return ocssd.Config{
		Geometry: ppa.Geometry{
			Channels: 4, PUsPerChannel: 2, PlanesPerPU: 2,
			BlocksPerPlane: blocksPerPlane, PagesPerBlock: 32,
			SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
		},
		Timing:    ocssd.DefaultTiming(),
		Media:     m,
		PageCache: true,
	}
}

// Manager owns the fleet: data members, the hot-spare pool, and the
// volumes composed over them.
type Manager struct {
	env *sim.Env
	cfg Config

	members []*Member // data devices then spares, indexed by id
	spares  []*Member // current hot-spare pool, highest id first: a stack

	// downtime is set between CrashAll and Recover: sub-request failures
	// during a fleet-wide power cut are outage noise, not member faults,
	// so the retry/ejection machinery stands down.
	downtime bool

	vols     map[string]*Volume
	volOrder []string
}

// completeReqArg is the closure-free Schedule trampoline for failing a
// sub-request from scheduler context (dead-member and injected-fault
// paths): the request's Err is set before scheduling.
var completeReqArg = func(a any) {
	r := a.(*blockdev.Request)
	r.OnComplete(r)
}

// NewManager builds the fleet: Devices+Spares ocssd devices registered
// with lightnvm, a full-device pblk target mounted on each, and a queue
// opened per member. It must run in simulation context (target creation
// performs device I/O).
func NewManager(p *sim.Proc, env *sim.Env, cfg Config) (*Manager, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("volume: fleet needs at least one device, got %d", cfg.Devices)
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "fleet"
	}
	if cfg.OCSSD.Geometry.Channels == 0 {
		cfg.OCSSD = DefaultDeviceConfig(24)
	}
	mgr := &Manager{env: env, cfg: cfg, vols: make(map[string]*Volume)}
	total := cfg.Devices + cfg.Spares
	for id := 0; id < total; id++ {
		m, err := mgr.addDevice(p, id)
		if err != nil {
			return nil, err
		}
		if id >= cfg.Devices {
			m.state = StateSpare
			mgr.spares = append(mgr.spares, m)
		}
		mgr.members = append(mgr.members, m)
	}
	slices.Reverse(mgr.spares)
	return mgr, nil
}

// addDevice builds one fleet device and mounts its pblk target.
func (mgr *Manager) addDevice(p *sim.Proc, id int) (*Member, error) {
	occfg := mgr.cfg.OCSSD
	occfg.Seed = mgr.cfg.Seed + int64(id)*6151
	oc, err := ocssd.New(mgr.env, occfg)
	if err != nil {
		return nil, fmt.Errorf("volume: device %d: %w", id, err)
	}
	name := fmt.Sprintf("%s%d", mgr.cfg.NamePrefix, id)
	m := &Member{id: id, name: name, mgr: mgr, oc: oc, ln: lightnvm.Register(name, oc)}
	oc.OnDeath(func() { mgr.onDeviceDeath(m) })
	if err := mgr.mount(p, m); err != nil {
		return nil, err
	}
	return m, nil
}

// mount creates the member's full-device pblk target and opens its queue.
// On remount after a crash the crashed instance has already released the
// device; pblk's scan recovery rebuilds the L2P.
func (mgr *Manager) mount(p *sim.Proc, m *Member) error {
	tname := m.name + "-pblk"
	k, err := pblk.New(p, m.ln, tname, mgr.cfg.Pblk)
	if err != nil {
		return fmt.Errorf("volume: mount %s: %w", tname, err)
	}
	m.tgt = k
	m.q = blockdev.OpenQueue(mgr.env, m.tgt, memberQueueDepth)
	m.sync = blockdev.NewQueueAdapter(mgr.env, m.q)
	return nil
}

// Env returns the fleet's simulation environment.
func (mgr *Manager) Env() *sim.Env { return mgr.env }

// Members returns the fleet roster, data devices first, then spares.
func (mgr *Manager) Members() []*Member {
	return append([]*Member(nil), mgr.members...)
}

// Member returns a fleet device by id.
func (mgr *Manager) Member(id int) *Member { return mgr.members[id] }

// SparesLeft returns the number of unassigned hot spares.
func (mgr *Manager) SparesLeft() int { return len(mgr.spares) }

// Volumes lists volumes in creation order.
func (mgr *Manager) Volumes() []*Volume {
	out := make([]*Volume, 0, len(mgr.volOrder))
	for _, n := range mgr.volOrder {
		out = append(out, mgr.vols[n])
	}
	return out
}

// Volume returns a volume by name.
func (mgr *Manager) Volume(name string) (*Volume, bool) {
	v, ok := mgr.vols[name]
	return v, ok
}

// Kill fails a fleet device whole — the drive drops off the bus. The
// ocssd death hook flips the member into degraded routing and crashes its
// pblk instance (volatile FTL state is gone with the device). It must run
// in simulation context.
func (mgr *Manager) Kill(id int) { mgr.members[id].oc.Fail() }

// onDeviceDeath is the ocssd death hook: stop routing to the member, then
// abandon its FTL. Runs in simulation context, from Fail.
func (mgr *Manager) onDeviceDeath(m *Member) {
	if m.state == StateDead {
		return
	}
	wasSpare := m.state == StateSpare
	m.state = StateDead
	if m.tgt != nil {
		m.tgt.Crash()
	}
	if wasSpare {
		mgr.dropSpare(m)
		return
	}
	if m.vol != nil {
		m.vol.stats.MemberDeaths++ // its state already routes the column degraded
	}
}

// dropSpare removes a dead device from the hot-spare pool.
func (mgr *Manager) dropSpare(m *Member) {
	if i := slices.Index(mgr.spares, m); i >= 0 {
		mgr.spares = slices.Delete(mgr.spares, i, i+1)
	}
}

// TakeSpare pops the lowest-numbered hot spare from the pool, nil when
// empty.
func (mgr *Manager) TakeSpare() *Member {
	n := len(mgr.spares)
	if n == 0 {
		return nil
	}
	s := mgr.spares[n-1]
	mgr.spares = slices.Delete(mgr.spares, n-1, n)
	return s
}

// InjectFaults arms (or, with a zero config, disarms) the transient fault
// injector on one member.
func (mgr *Manager) InjectFaults(id int, cfg FaultConfig) {
	mgr.members[id].faults = newFaults(cfg)
}

// CrashAll power-cuts the whole fleet: every live member's pblk instance
// is abandoned mid-flight (volatile ring and device caches lost, media
// kept) and every active rebuild aborts. Call Recover afterwards to
// remount the fleet through scan recovery.
func (mgr *Manager) CrashAll() {
	mgr.downtime = true
	for _, v := range mgr.Volumes() {
		for _, set := range v.sets {
			if set.rb != nil {
				set.rb.abort()
			}
		}
	}
	for _, m := range mgr.members {
		if m.state != StateDead && m.tgt != nil {
			m.tgt.Crash()
		}
	}
}

// Recover remounts every surviving member after CrashAll: each device's
// pblk target is re-created and scan recovery rebuilds its L2P from the
// media, exactly as a single-device restart would. Volumes keep their
// layout; a rebuild that was interrupted restarts from the beginning
// (the cursor is volatile). Returns the wall of virtual time spent.
func (mgr *Manager) Recover(p *sim.Proc) (time.Duration, error) {
	start := mgr.env.Now()
	for _, m := range mgr.members {
		if m.state == StateDead {
			continue
		}
		if err := mgr.mount(p, m); err != nil {
			return 0, err
		}
	}
	mgr.downtime = false
	for _, v := range mgr.Volumes() {
		for _, set := range v.sets {
			for _, r := range set.reps {
				if r.state == StateRebuilding {
					v.startRebuild(set, r)
				}
			}
		}
	}
	return mgr.env.Now() - start, nil
}
