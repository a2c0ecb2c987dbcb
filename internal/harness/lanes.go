package harness

import (
	"fmt"

	"repro/internal/fio"
	"repro/internal/pblk"
	"repro/internal/sim"
)

func init() {
	register("lanes", "Write-lane scaling: QD32 write throughput vs active write PUs (sharded writers)", runLanes)
}

// runLanes measures how pblk's sharded write datapath scales with the
// number of active write PUs (paper §4.2.1): each lane owns a dispatch
// shard of the ring buffer and its own writer process, so write bandwidth
// should grow with the active PU count until the channels saturate. The
// experiment sweeps ActivePUs at QD32 sequential writes and reports
// per-lane writer telemetry (queue depth high-water, semaphore stalls,
// padding) alongside throughput.
func runLanes(o Options) *Report {
	env, dev, ln := newOCSSD(o)
	total := dev.Geometry().TotalPUs()
	activeSets := []int{1, 4, 16, total}
	if o.Quick {
		activeSets = []int{1, 16}
	}

	type row struct {
		active     int
		wMBps      float64
		units      int64 // write units submitted during the window
		stalls     int64 // writer blocked on the per-PU semaphore
		peak       int   // max queued+retried sectors on any lane
		padded     int64
		minU, maxU int64 // per-lane unit spread (balance check)
	}
	var rows []row

	env.Go("lanes", func(p *sim.Proc) {
		k := newPblk(p, ln, activeSets[0])
		defer k.Stop(p)
		span := alignDown(k.Capacity()/4, 256<<10)
		for _, act := range activeSets {
			if act > total {
				continue
			}
			if k.ActivePUs() != act {
				check(k.SetActivePUs(p, act))
			}
			// Reset the garbage left by the previous point so every
			// active-PU count starts from the same free-space state.
			check(k.Trim(p, 0, span))
			job := fio.Job{
				Name: fmt.Sprintf("lanes-%d", act), Pattern: fio.SeqWrite,
				BS: 64 << 10, QD: 32, Size: span, Seed: o.Seed,
			}
			// Warm the ring buffer to steady state so the measured rate
			// reflects media drain through the lanes, not buffered acks.
			warm := job
			warm.Runtime = o.Duration / 2
			mustRun(p, k, warm)
			base := laneTotals(k.LaneStats())
			job.Runtime = o.Duration
			res := mustRun(p, k, job)
			ls := k.LaneStats()
			after := laneTotals(ls)
			r := row{
				active: act,
				wMBps:  res.WriteMBps(),
				units:  after.units - base.units,
				stalls: after.stalls - base.stalls,
				padded: after.padded - base.padded,
				minU:   1 << 62,
			}
			for _, s := range ls {
				if s.PeakDepth > r.peak {
					r.peak = s.PeakDepth
				}
				if s.UnitsWritten < r.minU {
					r.minU = s.UnitsWritten
				}
				if s.UnitsWritten > r.maxU {
					r.maxU = s.UnitsWritten
				}
			}
			rows = append(rows, r)
		}
	})
	env.Run()

	rep := &Report{}
	s := rep.section("Write-lane scaling at QD32 (64K sequential writes)")
	t := s.table("active PUs", "W MB/s", "units", "sem stalls", "peak lane depth", "padded", "units/lane min..max")
	for _, r := range rows {
		t.add(num("%.0f", r.active), mb(r.wMBps), num("%.0f", r.units), num("%.0f", r.stalls),
			num("%.0f", r.peak), num("%.0f", r.padded), num("%.0f..%.0f", r.minU, r.maxU))
	}
	if len(rows) >= 2 {
		first, last := rows[0], rows[len(rows)-1]
		s.note("", fmt.Sprintf("scaling: %d lanes -> %d lanes = %.1fx write throughput",
			first.active, last.active, last.wMBps/first.wMBps))
	}
	s.note("expected shape: throughput grows with active PUs (each lane drains its own",
		"shard of the ring buffer); per-lane unit counts stay balanced round-robin.")
	return rep
}

type laneTotal struct {
	units, stalls, padded int64
}

func laneTotals(ls []pblk.LaneStat) laneTotal {
	var t laneTotal
	for _, s := range ls {
		t.units += s.UnitsWritten
		t.stalls += s.SemStalls
		t.padded += s.Padded
	}
	return t
}
