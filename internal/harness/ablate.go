package harness

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fio"
	"repro/internal/lightnvm"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// Ablation studies for the design choices called out in DESIGN.md. Each
// isolates one mechanism and quantifies its contribution.

func init() {
	register("ablate-pagecache", "Ablation: controller page cache on/off (Table 1 read asymmetry)", runAblatePageCache)
	register("ablate-vector", "Ablation: vectored I/O vs serial per-sector commands (§3.3)", runAblateVector)
	register("ablate-buffering", "Ablation: host write buffering vs NVMe write cache (§2.3 lesson 3)", runAblateBuffering)
	register("ablate-gc-rl", "Ablation: PID GC rate limiter vs unthrottled users (§4.2.4)", runAblateGCRL)
	register("ablate-inflight", "Ablation: per-PU write queue depth vs read tail latency", runAblateInflight)
	register("ablate-suspend", "Ablation: program/erase suspend (§3.3 media hints)", runAblateSuspend)
}

func ablationDevice(o Options, pageCache bool) (*sim.Env, *ocssd.Device) {
	env := sim.NewEnv(o.Seed)
	cfg := wearFreeConfig(ocssd.WestlakeGeometry(8), o.Seed)
	cfg.PageCache = pageCache
	dev, err := ocssd.New(env, cfg)
	check(err)
	return env, dev
}

// runAblatePageCache shows that the controller's per-PU page buffer is
// what makes sequential 4K reads cheap (the paper's 40 µs average vs a
// full flash page read per sector without it).
func runAblatePageCache(o Options) *Report {
	rep := &Report{}
	s := rep.section("controller page cache: single-PU 4K sequential reads")
	t := s.table("page cache", "seq 4K MB/s", "avg us", "rand 4K MB/s")
	for _, cache := range []bool{true, false} {
		env, dev := ablationDevice(o, cache)
		ln := lightnvm.Register("ocssd-pc", dev)
		var seq, rnd *fio.Result
		env.Go("main", func(p *sim.Proc) {
			raw := newRaw(ln, "raw0", 0, 1)
			size := raw.BlockBytes(4)
			check(fio.Prepare(p, raw, 0, size))
			seq = mustRun(p, raw, fio.Job{Name: "s", Pattern: fio.SeqRead, BS: 4096, Size: size, Runtime: o.Duration})
			rnd = mustRun(p, raw, fio.Job{Name: "r", Pattern: fio.RandRead, BS: 4096, Size: size, Runtime: o.Duration, Seed: o.Seed})
		})
		env.Run()
		t.add(label(fmt.Sprint(cache)), mb(seq.ReadMBps()), us(seq.ReadLat.Mean()), mb(rnd.ReadMBps()))
	}
	s.note("", "expect: cache on gives ~2-3x sequential 4K bandwidth; random reads are unaffected.")
	return rep
}

// runAblateVector quantifies the vectored-I/O design: programming a 64 KB
// write unit as one 16-address vector vs sixteen serial single-sector
// commands (which also violate the full-page program rule, so the serial
// case is measured with per-page 4-sector commands — the minimum legal
// serialization).
func runAblateVector(o Options) *Report {
	env, dev := ablationDevice(o, true)
	g := dev.Geometry()
	units := 64
	var vecDur, serDur time.Duration
	env.Go("main", func(p *sim.Proc) {
		// Vectored: one command per 64 KB unit (16 sectors, 4 planes).
		t0 := env.Now()
		for u := 0; u < units; u++ {
			var addrs []ppa.Addr
			for pl := 0; pl < g.PlanesPerPU; pl++ {
				for s := 0; s < g.SectorsPerPage; s++ {
					addrs = append(addrs, ppa.Addr{PU: 0, Plane: pl, Block: 0, Page: u, Sector: s})
				}
			}
			check(dev.Do(p, &ocssd.Vector{Op: ocssd.OpWrite, Addrs: addrs}).FirstErr())
		}
		vecDur = env.Now() - t0
		// Serial: one command per plane-page (4 sectors) — no multi-plane
		// merging, 4x the commands, 4x the flash programs.
		t0 = env.Now()
		for u := 0; u < units; u++ {
			for pl := 0; pl < g.PlanesPerPU; pl++ {
				var addrs []ppa.Addr
				for s := 0; s < g.SectorsPerPage; s++ {
					addrs = append(addrs, ppa.Addr{PU: 1, Plane: pl, Block: 0, Page: u, Sector: s})
				}
				check(dev.Do(p, &ocssd.Vector{Op: ocssd.OpWrite, Addrs: addrs}).FirstErr())
			}
		}
		serDur = env.Now() - t0
	})
	env.Run()
	rep := &Report{}
	s := rep.section("vectored vs serial write commands (64 KB units)")
	t := s.table("mode", "MB/s", "total")
	vol := float64(units * g.PlanesPerPU * g.PageSize())
	t.add(label("vectored (1 cmd/unit)"), mb(vol/vecDur.Seconds()/1e6), duration(vecDur))
	t.add(label("serial (1 cmd/plane-page)"), mb(vol/serDur.Seconds()/1e6), duration(serDur))
	s.note("", "expect: serial loses the multi-plane program merge (~4x program time) plus per-command overhead.")
	return rep
}

// runAblateBuffering compares the paper's two write-buffer placements for
// a flush-heavy small-write workload: the host ring buffer (pblk) pads
// flash pages on every flush, while the NVMe baseline's power-protected DRAM
// write cache acks the flush at once and programs only full pages.
func runAblateBuffering(o Options) *Report {
	const writes = 200
	rep := &Report{}
	s := rep.section("write buffering placement: 4K write + flush, 200 records")
	t := s.table("placement", "avg ack us", "avg flush us", "padding KB")
	// row issues the records on the device mount returns, one write and one
	// flush each, and prints their mean latencies and the FTL's padding.
	row := func(name string, mount func(p *sim.Proc, env *sim.Env) (blockdev.Device, func() pblk.Stats, func(*sim.Proc) error)) {
		env := sim.NewEnv(o.Seed)
		var ack, flush time.Duration
		var padded int64
		env.Go("main", func(p *sim.Proc) {
			d, stats, stop := mount(p, env)
			defer stop(p)
			for i := 0; i < writes; i++ {
				t0 := env.Now()
				check(d.Write(p, int64(i)*4096, nil, 4096))
				ack += env.Now() - t0
				t0 = env.Now()
				check(d.Flush(p))
				flush += env.Now() - t0
			}
			padded = stats().PaddedSectors * 4096
		})
		env.Run()
		n := time.Duration(writes)
		t.add(label(name), us(ack/n), us(flush/n), num("%.0f", padded/1024))
	}
	row("host ring buffer (pblk)", func(p *sim.Proc, env *sim.Env) (blockdev.Device, func() pblk.Stats, func(*sim.Proc) error) {
		dev, err := ocssd.New(env, wearFreeConfig(ocssd.WestlakeGeometry(8), o.Seed))
		check(err)
		k, err := pblk.New(p, lightnvm.Register("ocssd-ab", dev), "pblk0", pblk.Config{ActivePUs: 4})
		check(err)
		return k, func() pblk.Stats { return k.Stats }, k.Stop
	})
	row("NVMe write cache", func(p *sim.Proc, env *sim.Env) (blockdev.Device, func() pblk.Stats, func(*sim.Proc) error) {
		d, err := newBaseline(p, env, o)
		check(err)
		return d, d.FTLStats, d.Stop
	})
	s.note("", "expect: host buffering acks fastest but pays page padding on every flush;",
		"the device write cache needs no padding (paper: 'a device-side buffer would",
		"significantly reduce the amount of padding required') at the cost of",
		"device-side logic and power-loss protection.")
	return rep
}

// runAblateGCRL contrasts the PID rate limiter with unthrottled user
// writes under sustained overwrite pressure at device capacity.
func runAblateGCRL(o Options) *Report {
	rep := &Report{}
	s := rep.section("GC rate limiter: overwrites at capacity")
	t := s.table("rate limiter", "write MB/s", "w p99 ms", "w max ms", "recycled")
	for _, disabled := range []bool{false, true} {
		env, dev := ablationDevice(o, true)
		ln := lightnvm.Register("ocssd-rl", dev)
		var res *fio.Result
		var recycled int64
		env.Go("main", func(p *sim.Proc) {
			// 16 active PUs with generous OP keeps the small ablation
			// device within pblk's spare-pool floor.
			k, err := pblk.New(p, ln, "pblk0", pblk.Config{
				DisableRateLimiter: disabled,
				ActivePUs:          16,
				OverProvision:      0.3,
			})
			check(err)
			defer k.Stop(p)
			check(fio.Prepare(p, k, 0, k.Capacity()))
			overwrite := k.Capacity() / 2
			res = mustRun(p, k, fio.Job{Name: "ow", Pattern: fio.RandWrite, BS: 64 << 10, QD: 4,
				Size: k.Capacity(), MaxOps: overwrite / (64 << 10), Seed: o.Seed})
			k.Flush(p)
			recycled = k.Stats.GCBlocksRecycled
		})
		env.Run()
		name := "PID (paper)"
		if disabled {
			name = "disabled"
		}
		t.add(label(name), mb(res.WriteMBps()), ms(res.WriteLat.Percentile(99)), ms(res.WriteLat.Max()), num("%.0f", recycled))
	}
	s.note("", "expect: the PID loop paces user writes to GC progress — lower burst throughput",
		"but over twice the proactive recycling; disabling it lets writes race to the",
		"free-block wall and depend entirely on the hard emergency stall.")
	return rep
}

// runAblateInflight sweeps the per-PU write queue bound: deeper queues
// help write throughput slightly but multiply how long a read can be
// stuck behind queued programs.
func runAblateInflight(o Options) *Report {
	rep := &Report{}
	s := rep.section("per-PU write inflight bound vs read tail (mixed 4K reads / seq writes)")
	t := s.table("inflight/PU", "W MB/s", "R p99 us", "R max us")
	for _, depth := range []int{1, 2, 4, 8} {
		// A default-OP pblk on all 128 PUs needs the experiment-scale device:
		// the 8-block ablation device is below its spare-pool floor.
		env, _, ln := newOCSSD(o)
		var rres, wres *fio.Result
		env.Go("main", func(p *sim.Proc) {
			k, err := pblk.New(p, ln, "pblk0", pblk.Config{MaxInflightPerPU: depth})
			check(err)
			defer k.Stop(p)
			prep := k.Capacity() / 4
			check(fio.Prepare(p, k, 0, prep))
			w := env.Go("w", func(pw *sim.Proc) {
				wres = mustRun(pw, k, fio.Job{Name: "w", Pattern: fio.SeqWrite, BS: 256 << 10,
					Offset: prep, Size: k.Capacity() - prep, Runtime: o.Duration})
			})
			rres = mustRun(p, k, fio.Job{Name: "r", Pattern: fio.RandRead, BS: 4096,
				Size: prep, Runtime: o.Duration, Seed: o.Seed})
			p.Wait(w.Done())
		})
		env.Run()
		t.add(num("%.0f", depth), mb(wres.WriteMBps()), us(rres.ReadLat.Percentile(99)), us(rres.ReadLat.Max()))
	}
	s.note("", "expect: read max latency grows roughly linearly with the queue bound.")
	return rep
}

// runAblateSuspend quantifies the §3.3 erase/program-suspend hint: reads
// that would otherwise wait out a 1.1 ms program or a 3 ms erase on their
// PU preempt it within one suspend slice, at the cost of longer writes.
func runAblateSuspend(o Options) *Report {
	rep := &Report{}
	s := rep.section("program/erase suspend: 4K reads against a continuous single-PU writer")
	t := s.table("suspend", "R p99 us", "R max us", "W MB/s", "suspensions")
	for _, slice := range []time.Duration{0, 100 * time.Microsecond} {
		env := sim.NewEnv(o.Seed)
		cfg := wearFreeConfig(ocssd.WestlakeGeometry(8), o.Seed)
		cfg.Timing.SuspendSlice = slice
		cfg.Timing.SuspendPenalty = 50 * time.Microsecond
		dev, err := ocssd.New(env, cfg)
		check(err)
		ln := lightnvm.Register("ocssd-sus", dev)
		var rres, wres *fio.Result
		env.Go("main", func(p *sim.Proc) {
			// One PU for both, the worst case: reads over its two prepared
			// blocks, the writer cycling through the other six.
			raw := newRaw(ln, "raw0", 0, 1)
			prep := raw.BlockBytes(2)
			check(fio.Prepare(p, raw, 0, prep))
			w := env.Go("writer", func(pw *sim.Proc) {
				wres = mustRun(pw, raw, fio.Job{Name: "w", Pattern: fio.SeqWrite, BS: 64 << 10,
					Offset: prep, Size: raw.BlockBytes(6), Runtime: o.Duration})
			})
			rres = mustRun(p, raw, fio.Job{Name: "r", Pattern: fio.RandRead, BS: 4 << 10,
				Size: prep, Runtime: o.Duration, Seed: o.Seed})
			p.Wait(w.Done())
		})
		env.Run()
		name := "off"
		if slice > 0 {
			name = slice.String()
		}
		t.add(label(name), us(rres.ReadLat.Percentile(99)), us(rres.ReadLat.Max()),
			mb(wres.WriteMBps()), num("%.0f", dev.Stats.Suspensions))
	}
	s.note("", "reader and writer share one PU (reads over its two prepared blocks, the writer",
		"cycling through the other six). expect: without suspend the read tail is a whole",
		"block erase (3 ms; a program is 1.1 ms); suspend caps the wait at one slice plus a",
		"write unit's transfer (~7x lower p99) while writes slow by the resume penalties —",
		"the paper's stated trade-off.")
	return rep
}
