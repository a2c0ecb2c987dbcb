package harness

import (
	"fmt"

	"repro/internal/fio"
	"repro/internal/sim"
)

func init() {
	register("fig5", "Figure 5: mixed R/W vs number of active write PUs", runFig5)
}

// runFig5 reproduces the paper's key result: reads mixed with writes
// recover their latency as the number of active write PUs shrinks, while
// writes are still striped over all PUs at block granularity.
//
// Panels: (a) throughput + 256K QD16 read latency under 256K QD1 writes;
// (b) 4K QD1 read latency under the same writes; (c) same as (a) with
// writes rate-limited to 200 MB/s.
func runFig5(o Options) *Report {
	env, dev, ln := newOCSSD(o)
	activeSets := []int{128, 64, 32, 16, 8, 4}
	if o.Quick {
		activeSets = []int{128, 16, 4}
	}
	total := dev.Geometry().TotalPUs()

	type row struct {
		active             int
		wMBps, rMBps       float64
		rAvg, rMax, r99    float64 // 256K QD16 reads, us
		r4Avg, r4Max, r499 float64 // 4K QD1 reads, us
		rlAvg, rl99        float64 // rate-limited panel, us
		rlW                float64
	}
	var rows []row
	var wRef, rRef float64

	env.Go("fig5", func(p *sim.Proc) {
		k := newPblk(p, ln, 0)
		defer k.Stop(p)
		// Prepare the read dataset striped across all PUs (paper: same
		// preparation as Fig 4), then write beyond it.
		prep := alignDown(k.Capacity()*2/5, 256<<10)
		check(fio.Prepare(p, k, 0, prep))
		wOff := prep
		wSpan := alignDown(k.Capacity()-prep, 256<<10)

		// Reference values: 100% writes and 100% reads. Writes warm up for
		// half a window first so the ring buffer is in steady state and
		// the measured rate reflects media drain, not buffered acks.
		mustRun(p, k, fio.Job{Name: "warm", Pattern: fio.SeqWrite, BS: 256 << 10, QD: 1,
			Offset: wOff, Size: wSpan, Runtime: o.Duration / 2})
		refW := mustRun(p, k, fio.Job{Name: "refW", Pattern: fio.SeqWrite, BS: 256 << 10, QD: 1,
			Offset: wOff, Size: wSpan, Runtime: o.Duration})
		k.Flush(p)
		refR := mustRun(p, k, fio.Job{Name: "refR", Pattern: fio.RandRead, BS: 256 << 10, QD: 16,
			Size: prep, Runtime: o.Duration, Seed: o.Seed})
		wRef, rRef = refW.WriteMBps(), refR.ReadMBps()

		for _, act := range activeSets {
			if act > total {
				continue
			}
			check(k.SetActivePUs(p, act))
			run := func(readBS, readQD int, rateMBps float64) (*fio.Result, *fio.Result) {
				var wres *fio.Result
				w := env.Go("writer", func(pw *sim.Proc) {
					// Warm the write buffer to steady state before the
					// measured window.
					mustRun(pw, k, fio.Job{Name: "warm", Pattern: fio.SeqWrite, BS: 256 << 10, QD: 1,
						Offset: wOff, Size: wSpan, Runtime: o.Duration / 2, WriteRateMBps: rateMBps})
					wres = mustRun(pw, k, fio.Job{Name: "W", Pattern: fio.SeqWrite, BS: 256 << 10, QD: 1,
						Offset: wOff, Size: wSpan, Runtime: o.Duration, WriteRateMBps: rateMBps})
				})
				p.Sleep(o.Duration / 2)
				rres := mustRun(p, k, fio.Job{Name: "R", Pattern: fio.RandRead, BS: readBS, QD: readQD,
					Size: prep, Runtime: o.Duration, Seed: o.Seed})
				p.Wait(w.Done())
				return wres, rres
			}
			wa, ra := run(256<<10, 16, 0)
			_, rb := run(4<<10, 1, 0)
			wc, rc := run(256<<10, 1, 200)
			rows = append(rows, row{
				active: act,
				wMBps:  wa.WriteMBps(), rMBps: ra.ReadMBps(),
				rAvg: usF(ra.ReadLat.Mean()), rMax: usF(ra.ReadLat.Max()), r99: usF(ra.ReadLat.Percentile(99)),
				r4Avg: usF(rb.ReadLat.Mean()), r4Max: usF(rb.ReadLat.Max()), r499: usF(rb.ReadLat.Percentile(99)),
				rlAvg: usF(rc.ReadLat.Mean()), rl99: usF(rc.ReadLat.Percentile(99)),
				rlW: wc.WriteMBps(),
			})
		}
	})
	env.Run()

	rep := &Report{}
	sa := rep.section("Figure 5(a): throughput under mixed R/W (W 256K QD1, R 256K QD16)")
	sa.note(fmt.Sprintf("reference: 100%% write %.0f MB/s, 100%% read %.0f MB/s", wRef, rRef))
	ta := sa.table("active PUs", "W MB/s", "R MB/s", "R avg us", "R p99 us", "R max us")
	tb := rep.section("Figure 5(b): 4K QD1 read latency under writes").table("active PUs", "R avg us", "R p99 us", "R max us")
	sc := rep.section("Figure 5(c): reads vs writes rate-limited to 200 MB/s (R 256K QD1)")
	tc := sc.table("active PUs", "W MB/s", "R avg us", "R p99 us")
	for _, r := range rows {
		ta.add(num("%.0f", r.active), mb(r.wMBps), mb(r.rMBps), num("%.0f", r.rAvg), num("%.0f", r.r99), num("%.0f", r.rMax))
		tb.add(num("%.0f", r.active), num("%.0f", r.r4Avg), num("%.0f", r.r499), num("%.0f", r.r4Max))
		tc.add(num("%.0f", r.active), mb(r.rlW), num("%.0f", r.rlAvg), num("%.0f", r.rl99))
	}
	sc.note("", "paper shape: at 128 active PUs both R and W roughly halve vs reference and read",
		"latency ~2x (max ~4x); shrinking to 4 active PUs restores reads to near-reference",
		"while writes proceed at ~200 MB/s; variance shrinks even when writes are rate-limited.")
	return rep
}
