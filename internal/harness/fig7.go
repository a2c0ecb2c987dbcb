package harness

import (
	"repro/internal/pblk"
	"repro/internal/sim"
	"repro/internal/sqlbench"
)

func init() {
	register("fig7", "Figure 7: OLTP/OLAP transactions per second and latency", runFig7)
}

// runFig7 drives the Sysbench-style OLTP (flush-heavy) and OLAP
// (read-mostly) workloads on the three devices. Both are CPU-bound, so
// throughput is similar everywhere; the OCSSD's stream separation shows up
// in the OLTP latency tail, and pblk's padding counters reproduce the
// paper's flush/padding observation (44,000 flushes and ~2 GB padding per
// 10 GB OLTP writes vs 400 flushes / 16 MB for OLAP).
func runFig7(o Options) *Report {
	dur := 2 * o.Duration

	type devRun struct {
		name       string
		oltp, olap *sqlbench.Result
		// pblk padding counters where applicable
		padBytes int64
		ftlFlush int64
	}
	var runs []devRun

	for _, d := range appDevices {
		env := sim.NewEnv(o.Seed)
		run := devRun{name: d.name}
		env.Go("main", func(p *sim.Proc) {
			dev, stop := d.build(p, env, o)
			oltpCfg := sqlbench.DefaultOLTP()
			oltpCfg.Seed = o.Seed
			run.oltp = sqlbench.RunOLTP(p, env, dev, oltpCfg, dur)
			checkIn(d.name, run.oltp.Err)
			if k, ok := dev.(*pblk.Pblk); ok {
				run.padBytes = k.Stats.PaddedSectors * int64(k.SectorSize())
				run.ftlFlush = k.Stats.Flushes
			}
			olapCfg := sqlbench.DefaultOLAP()
			olapCfg.Seed = o.Seed
			run.olap = sqlbench.RunOLAP(p, env, dev, olapCfg, dur)
			checkIn(d.name, run.olap.Err)
			stop(p)
		})
		env.Run()
		runs = append(runs, run)
	}

	rep := &Report{}
	t := rep.section("Figure 7: OLTP / OLAP throughput and latency").
		table("device", "workload", "tps", "avg ms", "p95 ms", "p99 ms", "max ms", "flushes")
	for _, r := range runs {
		for _, res := range []*sqlbench.Result{r.oltp, r.olap} {
			t.add(label(r.name), label(res.Name), num("%.0f", res.TPS),
				ms(res.Lat.Mean()), ms(res.Lat.Percentile(95)), ms(res.Lat.Percentile(99)), ms(res.Lat.Max()),
				num("%.0f", res.Flushes))
		}
	}

	s := rep.section("Flush-driven padding on pblk (paper: OLTP 44k flushes ~2GB padding per 10GB; OLAP 400 flushes ~16MB)")
	t2 := s.table("device", "OLTP writes MB", "pblk padding MB", "padding/write ratio")
	for _, r := range runs {
		if r.ftlFlush == 0 {
			continue
		}
		writtenMB := float64(r.oltp.RedoBytes+r.oltp.DataWriteBytes) / 1e6
		padMB := float64(r.padBytes) / 1e6
		ratio := 0.0
		if writtenMB > 0 {
			ratio = padMB / writtenMB
		}
		t2.add(label(r.name), num("%.1f", writtenMB), num("%.1f", padMB), num("%.2f", ratio))
	}
	s.note("", "paper shape: OLTP/OLAP tps similar across devices (CPU bound); OLTP p95 latency",
		"rises sharply on the NVMe SSD but stays near average on the open-channel SSD;",
		"OLTP's per-commit flushes cause ~0.2 padding bytes per written byte on pblk.")
	return rep
}
