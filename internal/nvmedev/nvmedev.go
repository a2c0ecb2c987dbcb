// Package nvmedev models the evaluation baseline: a traditional
// block-interface NVMe SSD (the paper's Intel P3700 stand-in).
//
// Architecturally it is the paper's Figure 1(a): the same NAND media and
// channel/PU fabric as the open-channel SSD, but with the FTL embedded in
// the device. The embedded FTL reuses the pblk implementation configured
// the way a device vendor would fix it: all PUs active (page-granularity
// striping everywhere), a capacitor-backed DRAM write cache (so host
// flushes are cheap), and device-managed GC — none of it tunable or even
// visible from the host. Reads therefore get stuck behind device-scheduled
// writes and erases, producing the unpredictable tail latencies the paper
// measures (§5.3–5.5).
package nvmedev

import (
	"time"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// Config shapes the baseline device.
type Config struct {
	// Geometry defaults to P3700Geometry(blocksPerPlane=32) when zero.
	Geometry ppa.Geometry
	Timing   ocssd.Timing
	Media    nand.Config
	// OverProvision is the device's fixed internal spare factor.
	OverProvision float64
	Seed          int64
}

// P3700Geometry approximates the baseline drive's internal layout: half
// the channels and PUs of the Westlake OCSSD, same MLC media (the paper
// notes the OCSSD "has more internal parallelism that can be leveraged by
// writes").
func P3700Geometry(blocksPerPlane int) ppa.Geometry {
	return ppa.Geometry{
		Channels:       8,
		PUsPerChannel:  4,
		PlanesPerPU:    4,
		BlocksPerPlane: blocksPerPlane,
		PagesPerBlock:  256,
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
	}
}

// DefaultConfig returns a baseline device with the given blocks per plane.
func DefaultConfig(blocksPerPlane int) Config {
	return Config{
		Geometry:      P3700Geometry(blocksPerPlane),
		Timing:        ocssd.DefaultTiming(),
		Media:         nand.DefaultConfig(),
		OverProvision: 0.12,
		Seed:          2,
	}
}

// Device is the baseline block SSD. It implements blockdev.Device.
type Device struct {
	*blockdev.SyncAdapter // the blocking calls; OpenQueue is the device's own

	env *sim.Env
	raw *ocssd.Device
	ftl *pblk.Pblk
	// firmware per-command latency, standing in for the embedded
	// controller's request handling.
	cmdLatency time.Duration
	// Flushes counts host flush commands (all cheap: the DRAM cache is
	// power-loss protected).
	Flushes int64
}

var _ blockdev.Device = (*Device)(nil)

// New builds the baseline device inside env. Like a real drive it arrives
// "formatted": the internal FTL initializes before first use.
func New(p *sim.Proc, env *sim.Env, cfg Config) (*Device, error) {
	if cfg.Geometry.Channels == 0 {
		cfg = DefaultConfig(32)
	}
	raw, err := ocssd.New(env, ocssd.Config{
		Geometry:  cfg.Geometry,
		Timing:    cfg.Timing,
		Media:     cfg.Media,
		PageCache: true,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	ln := lightnvm.Register("nvme-internal", raw)
	ftl, err := pblk.New(p, ln, "embedded-ftl", pblk.Config{
		ActivePUs:         0, // all PUs: fixed page-granularity striping
		OverProvision:     cfg.OverProvision,
		HostReadOverhead:  time.Nanosecond, // firmware cost charged below
		HostWriteOverhead: time.Nanosecond,
	})
	if err != nil {
		return nil, err
	}
	d := &Device{env: env, raw: raw, ftl: ftl, cmdLatency: 2 * time.Microsecond}
	d.SyncAdapter = blockdev.NewSyncAdapter(env, d, d.newIssue())
	return d, nil
}

// newIssue returns the device's datapath: each request pays the firmware
// command-handling latency, then reads, writes and trims ride the embedded
// FTL's datapath — a write is acknowledged once in the device's
// power-protected DRAM cache; media programming proceeds asynchronously.
// Flushes complete after command handling alone, for the same reason:
// cached writes are already durable. This is why the paper's OLTP flushes
// cost the NVMe SSD little padding while still suffering read/write
// interference.
func (d *Device) newIssue() blockdev.IssueFunc {
	var flushDone, ftlIssue func(any)
	return func(req *blockdev.Request, done func(*blockdev.Request)) {
		if flushDone == nil {
			flushDone = func(a any) {
				d.Flushes++
				done(a.(*blockdev.Request))
			}
			ftlIssue = func(a any) { d.ftl.IssueAsync(a.(*blockdev.Request), done) }
		}
		if req.Op == blockdev.ReqFlush {
			d.env.ScheduleArg(d.cmdLatency, flushDone, req)
			return
		}
		d.env.ScheduleArg(d.cmdLatency, ftlIssue, req)
	}
}

// OpenQueue implements blockdev.QueueProvider, on an issue value of the
// queue's own (newIssue binds the caller's done). On a queue pair a flush is
// still a barrier for ordering.
func (d *Device) OpenQueue(_ *sim.Env, depth int) blockdev.Queue {
	return blockdev.NewQueue(d.env, d, depth, d.newIssue())
}

// Raw exposes the internal device for instrumentation in tests and benches.
func (d *Device) Raw() *ocssd.Device { return d.raw }

// FTLStats returns the embedded FTL's counters (GC volume etc.).
func (d *Device) FTLStats() pblk.Stats { return d.ftl.Stats }

// SectorSize implements blockdev.Device.
func (d *Device) SectorSize() int { return d.ftl.SectorSize() }

// Capacity implements blockdev.Device.
func (d *Device) Capacity() int64 { return d.ftl.Capacity() }

// Stop quiesces the device's background work (for clean test teardown).
func (d *Device) Stop(p *sim.Proc) error { return d.ftl.Stop(p) }
