package harness

import (
	"fmt"

	"repro/internal/fio"
	"repro/internal/sim"
)

func init() {
	register("table1", "Table 1: Solid-State Drive Characterization", runTable1)
}

// runTable1 reproduces the drive characterization: per-PU bandwidths via
// fio on raw (FTL-less) targets, aggregate bandwidths, and pblk factory vs
// steady (GC-active) write throughput.
func runTable1(o Options) *Report {
	rep := &Report{}
	s := rep.section("Table 1: Open-Channel SSD characterization (paper values in parentheses)")
	env, dev, ln := newOCSSD(westlake(o))
	g := dev.Geometry()
	s.note(fmt.Sprintf("Channels %d, PUs/channel %d (total %d), planes %d, blocks/plane %d (paper: 1067), %d pages/block, page %dK+%dB OOB",
		g.Channels, g.PUsPerChannel, g.TotalPUs(), g.PlanesPerPU, g.BlocksPerPlane,
		g.PagesPerBlock, g.PageSize()/1024, g.OOBPerPage))

	t := s.table("metric", "measured MB/s", "paper MB/s")
	dur := o.Duration

	var sw, sr4, sr64, rr4, rr64 *fio.Result
	env.Go("perPU", func(p *sim.Proc) {
		// One raw target per PU under test: PU 1 is prepared for the read
		// jobs, PU 0 takes the write job.
		rd, wr := newRaw(ln, "raw-read", 1, 2), newRaw(ln, "raw-write", 0, 1)
		size := rd.BlockBytes(4)
		check(fio.Prepare(p, rd, 0, size))
		sw = mustRun(p, wr, fio.Job{Name: "w", Pattern: fio.SeqWrite, BS: 64 << 10, Size: size, Runtime: dur})
		sr4 = mustRun(p, rd, fio.Job{Name: "sr4", Pattern: fio.SeqRead, BS: 4 << 10, Size: size, Runtime: dur})
		sr64 = mustRun(p, rd, fio.Job{Name: "sr64", Pattern: fio.SeqRead, BS: 64 << 10, QD: 2, Size: size, Runtime: dur})
		rr4 = mustRun(p, rd, fio.Job{Name: "rr4", Pattern: fio.RandRead, BS: 4 << 10, Size: size, Runtime: dur, Seed: o.Seed})
		rr64 = mustRun(p, rd, fio.Job{Name: "rr64", Pattern: fio.RandRead, BS: 64 << 10, QD: 2, Size: size, Runtime: dur, Seed: o.Seed})
		// The aggregate half mounts pblk on the whole device.
		rd.Stop()
		wr.Stop()
	})
	env.Run()
	t.add(label("Single Seq. PU Write"), mb(sw.WriteMBps()), mb(47))
	t.add(label("Single Seq. PU Read 4K"), mb(sr4.ReadMBps()), mb(105))
	t.add(label("Single Seq. PU Read 64K"), mb(sr64.ReadMBps()), mb(280))
	t.add(label("Single Rnd. PU Read 4K"), mb(rr4.ReadMBps()), mb(56))
	t.add(label("Single Rnd. PU Read 64K"), mb(rr64.ReadMBps()), mb(273))

	// Aggregate: pblk over all PUs. Writes are measured over a complete
	// region fill including the final flush, so the host write buffer
	// cannot inflate the rate; reads run over fully-mapped data.
	var factoryMBps, maxReadMBps, steadyMBps float64
	var recycled int64
	env.Go("aggregate", func(p *sim.Proc) {
		k := newPblk(p, ln, 0)
		const bs = 256 << 10
		region := k.Capacity() / 8 / bs * bs
		t0 := env.Now()
		mustRun(p, k, fio.Job{Name: "maxw", Pattern: fio.SeqWrite, BS: bs, QD: 2,
			Size: region, MaxOps: region / bs})
		check(k.Flush(p))
		factoryMBps = float64(region) / (env.Now() - t0).Seconds() / 1e6

		maxR := mustRun(p, k, fio.Job{Name: "maxr", Pattern: fio.SeqRead, BS: bs, QD: 16, NumJobs: 8,
			Size: region, Runtime: dur})
		maxReadMBps = maxR.ReadMBps()

		// Steady state: fill the device completely, then run a full second
		// sequential pass so GC reclaims blocks while writes proceed (the
		// paper's sustained-write methodology; groups invalidate fully as
		// the pass advances, keeping GC movement low).
		check(fio.Prepare(p, k, region, k.Capacity()-region))
		overwrite := k.Capacity() / bs * bs
		t0 = env.Now()
		mustRun(p, k, fio.Job{Name: "steady", Pattern: fio.SeqWrite, BS: bs, QD: 2,
			Size: overwrite, MaxOps: overwrite / bs})
		check(k.Flush(p))
		steadyMBps = float64(overwrite) / (env.Now() - t0).Seconds() / 1e6
		recycled = k.Stats.GCBlocksRecycled
		check(k.Stop(p))
	})
	env.Run()
	t.add(label("Max Write (pblk factory)"), mb(factoryMBps), mb(4000))
	t.add(label("Max Read"), mb(maxReadMBps), mb(4500))
	t.add(label("pblk Steady Write (GC)"), mb(steadyMBps), mb(3200))
	s.note("", fmt.Sprintf("steady-state GC recycled %d block groups during the overwrite", recycled),
		"", fmt.Sprintf("Channel data bandwidth: %.0f MB/s (paper: 280)", dev.Timing().ChannelMBps))
	return rep
}
