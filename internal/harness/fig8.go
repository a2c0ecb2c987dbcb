package harness

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register("fig8", "Figure 8: predictable latency via PU-isolated streams vs NVMe SSD", runFig8)
}

// runFig8 reproduces the application-specific FTL demonstration: two
// streams go to the device without an FTL — 4K random reads at QD1 and 64K
// writes at QD1 — at read/write mixes 100/0, 80/20, 66/33, 50/50. On the
// OCSSD each stream has a raw target on its own PU range, so read latency
// stays flat as writes increase; the NVMe baseline mixes them and its read
// tail grows even at 20% writes.
func runFig8(o Options) *Report {
	mixes := [][2]int{{100, 0}, {80, 20}, {66, 33}, {50, 50}}
	var ocRes, nvmeRes []stats.Hist

	// ---- OCSSD: one raw target per stream, on disjoint PU ranges ----
	env, _, ln := newOCSSD(o)
	env.Go("fig8-ocssd", func(p *sim.Proc) {
		rd, wr := newRaw(ln, "raw-read", 0, 4), newRaw(ln, "raw-write", 64, 68)
		prep := rd.BlockBytes(4)
		check(fio.Prepare(p, rd, 0, prep))
		for _, m := range mixes {
			ocRes = append(ocRes, runMix(p, rd, wr, prep, 0, m[1], 1330*time.Microsecond, o.Duration, 7))
		}
	})
	env.Run()

	// ---- NVMe SSD: the device mixes reads and writes ----
	env2 := sim.NewEnv(o.Seed)
	env2.Go("fig8-nvme", func(p *sim.Proc) {
		d, err := newBaseline(p, env2, o)
		check(err)
		defer d.Stop(p)
		prep := alignDown(d.Capacity()/2, 256<<10)
		check(fio.Prepare(p, d, 0, prep))
		p.Sleep(100 * time.Millisecond) // let the device cache drain
		for _, m := range mixes {
			nvmeRes = append(nvmeRes, runMix(p, d, d, prep, prep, m[1], 300*time.Microsecond, o.Duration, o.Seed))
		}
	})
	env2.Run()

	rep := &Report{}
	s := rep.section("Figure 8: 4K random-read latency (us) vs write share — OCSSD (PU-isolated) and NVMe SSD")
	t := s.table("R/W mix", "OCSSD p95", "OCSSD p99", "OCSSD max", "NVMe p95", "NVMe p99", "NVMe max")
	for i := range mixes {
		oc, nv := ocRes[i], nvmeRes[i]
		t.add(label(fmt.Sprintf("%d/%d", mixes[i][0], mixes[i][1])),
			us(oc.Percentile(95)), us(oc.Percentile(99)), us(oc.Max()),
			us(nv.Percentile(95)), us(nv.Percentile(99)), us(nv.Max()))
	}
	s.note("", "paper shape: OCSSD read latency stays flat as the write share grows; the NVMe SSD's",
		"tail inflates already at 20% writes because it cannot separate the streams.")
	return rep
}

// runMix runs the figure's two streams for d and returns the read
// latencies: 4K random reads at QD1 over the prepared [0, prep) of rdev,
// and 64K sequential writes at QD1 over wdev from wOff on. Below 50 % the
// writer is paced to one write per cost × 100 / 2·writePct, cost being
// the time one write keeps the device busy — a duty cycle that is all
// writes at 50 %, from where on the writer runs unpaced.
func runMix(p *sim.Proc, rdev, wdev blockdev.Device, prep, wOff int64, writePct int, cost, d time.Duration, seed int64) stats.Hist {
	var w *sim.Proc
	if writePct > 0 {
		writer := fio.Job{Name: "fig8.writer", Pattern: fio.SeqWrite, BS: 64 << 10, Offset: wOff, Runtime: d}
		if writePct < 50 {
			period := cost * 100 / time.Duration(2*writePct)
			writer.WriteRateMBps = float64(writer.BS) / period.Seconds() / 1e6
		}
		w = p.Env().Go("fig8.writer", func(pw *sim.Proc) {
			mustRun(pw, wdev, writer)
		})
	}
	r := mustRun(p, rdev, fio.Job{Name: "fig8.reader", Pattern: fio.RandRead, BS: 4096, Size: prep, Runtime: d, Seed: seed})
	if w != nil {
		p.Wait(w.Done())
	}
	return r.ReadLat
}
