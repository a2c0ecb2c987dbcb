package harness

import (
	"fmt"
	"time"

	"repro/internal/fio"
	"repro/internal/lightnvm"
	"repro/internal/pblk"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register("tenants", "Multi-tenant targets: PU-partitioned pblk instances vs one shared pblk", runTenants)
}

// tenantRow is one configuration's measurement: the latency-critical
// tenant's read percentiles and rate, and the write-heavy tenant's
// throughput.
type tenantRow struct {
	name    string
	reads   stats.Hist
	readOps int64
	readDur time.Duration
	wMBps   float64
}

// runTenants demonstrates the media manager's multi-tenant story (paper
// §4.1 + Figure 8, at the target level): a latency-critical tenant (4K
// random reads, QD1) runs next to a write-heavy tenant (64K sequential
// writes) on one open-channel SSD, in three configurations —
//
//   - solo:        the latency tenant alone on a half-device partition
//     (the reference for "flat" latency);
//   - partitioned: two pblk targets on disjoint PU ranges, each reserved
//     through lightnvm.Device.Reserve, one per tenant — the writer's
//     programs and GC never touch the reader's PUs;
//   - shared:      one full-device pblk serving both tenants on disjoint
//     LBA regions — the FTL stripes both over all PUs, so reads queue
//     behind the neighbour's programs.
//
// The partitioned reader's tail should track solo while the shared
// reader's tail inflates — the kernel-deployable form of the paper's
// PPA-level isolation claim.
func runTenants(o Options) *Report {
	latMB, bulkMB := int64(128), int64(256)
	if o.Quick {
		latMB, bulkMB = 48, 96
	}

	rows := []tenantRow{
		runTenantScenario(o, "solo", latMB, 0, false),
		runTenantScenario(o, "partitioned", latMB, bulkMB, false),
		runTenantScenario(o, "shared", latMB, bulkMB, true),
	}

	rep := &Report{}
	s := rep.section("Multi-tenant targets: latency tenant 4K randread QD1 vs write-heavy neighbour (64K seq)")
	t := s.table("config", "read p50", "read p99", "read p99.9", "read max", "kIOPS", "neighbour MB/s")
	for _, r := range rows {
		iops := label("-")
		if r.readDur > 0 {
			iops = num("%.1f", float64(r.readOps)/r.readDur.Seconds()/1e3)
		}
		wr := label("-")
		if r.wMBps > 0 {
			wr = mb(r.wMBps)
		}
		t.add(label(r.name),
			us(r.reads.Percentile(50)), us(r.reads.Percentile(99)),
			us(r.reads.Percentile(99.9)), us(r.reads.Max()), iops, wr)
	}
	solo, part, shared := rows[0].reads.Percentile(99), rows[1].reads.Percentile(99), rows[2].reads.Percentile(99)
	s.note("", fmt.Sprintf("read p99: solo %v, partitioned %v (%.2fx solo), shared %v (%.2fx solo)",
		solo.Round(time.Microsecond), part.Round(time.Microsecond), ratio(part, solo),
		shared.Round(time.Microsecond), ratio(shared, solo)),
		"paper shape: the PU-partitioned tenant's read tail stays flat next to a write-heavy",
		"neighbour; the shared-FTL baseline's tail inflates because both stripe over all PUs.")
	return rep
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runTenantScenario builds a fresh device and runs one configuration.
// bulkMB == 0 means no neighbour (solo); shared selects the single-target
// baseline instead of partitioned targets.
func runTenantScenario(o Options, name string, latMB, bulkMB int64, shared bool) tenantRow {
	row := tenantRow{name: name}
	env, dev, ln := newOCSSD(o)
	total := dev.Geometry().TotalPUs()
	half := total / 2

	env.Go("tenants-"+name, func(p *sim.Proc) {
		mount := func(name string, r lightnvm.PURange) *pblk.Pblk {
			v, err := ln.Reserve(name, r)
			check(err)
			k, err := pblk.NewView(p, v, pblk.Config{})
			check(err)
			return k
		}
		var latDev, bulkDev *pblk.Pblk
		if shared {
			latDev = mount("pblk-shared", lightnvm.PURange{})
			bulkDev = latDev
		} else {
			latDev = mount("pblk-lat", lightnvm.PURange{Begin: 0, End: half})
			if bulkMB > 0 {
				bulkDev = mount("pblk-bulk", lightnvm.PURange{Begin: half, End: total})
			}
		}

		latSpan := alignDown(min(latDev.Capacity()/4, latMB<<20), 256<<10)
		check(fio.Prepare(p, latDev, 0, latSpan))

		var bulk *sim.Proc
		if bulkDev != nil {
			bulkOff := int64(0)
			if shared {
				bulkOff = latSpan
			}
			bulkSpan := alignDown(min(bulkDev.Capacity()-bulkOff, bulkMB<<20), 64<<10)
			bulk = env.Go("tenants-bulk", func(pw *sim.Proc) {
				r := mustRun(pw, bulkDev, fio.Job{
					Name: "bulk", Pattern: fio.SeqWrite, BS: 64 << 10, QD: 8,
					Offset: bulkOff, Size: bulkSpan, Runtime: o.Duration, Seed: o.Seed,
				})
				if r.Elapsed > 0 {
					row.wMBps = float64(r.WriteBytes) / 1e6 / r.Elapsed.Seconds()
				}
			})
		}

		r := mustRun(p, latDev, fio.Job{
			Name: "latency", Pattern: fio.RandRead, BS: 4 << 10, QD: 1,
			Size: latSpan, Runtime: o.Duration, Seed: o.Seed + 1,
		})
		row.reads = r.ReadLat
		row.readOps = r.Reads
		row.readDur = r.Elapsed
		if bulk != nil {
			p.Wait(bulk.Done())
		}
	})
	env.Run()
	return row
}
