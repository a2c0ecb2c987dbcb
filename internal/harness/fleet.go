package harness

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fio"
	"repro/internal/pblk"
	"repro/internal/sim"
	"repro/internal/volume"
)

func init() {
	register("fleet", "Multi-device volumes: RAID-0 scaling, mirrored failover, online rebuild", runFleet)
}

// fleetConfig assembles one fleet of compact 8-PU members. Quick mode
// shrinks the media so the rebuild drill stays cheap.
func fleetConfig(o Options, devices, spares int) volume.Config {
	bpp := o.BlocksPerPlane
	if o.Quick {
		bpp = o.scaled(16)
	}
	return volume.Config{
		Devices: devices,
		Spares:  spares,
		OCSSD:   volume.DefaultDeviceConfig(bpp),
		Pblk:    pblk.Config{OverProvision: 0.2},
		Seed:    o.Seed,
	}
}

// runFleet is the fleet-level evaluation the single-device experiments
// cannot give: (1) RAID-0 read/write throughput scaling with device
// count, the volume layer adding devices the way the paper's pblk adds
// PUs; (2) a failover drill on a stripe of mirrors — a member dies
// mid-workload, the volume serves on in degraded mode, a hot spare is
// rebuilt online at a capped rate, and checksum scans prove zero loss of
// acknowledged data both degraded and after the rebuild.
func runFleet(o Options) *Report {
	rep := &Report{}
	runFleetScaling(o, rep)
	runFleetFailover(o, rep)
	return rep
}

// stopFleet stops every member's FTL, a killed member's included.
func stopFleet(p *sim.Proc, mgr *volume.Manager) {
	for _, m := range mgr.Members() {
		check(m.Target().Stop(p))
	}
}

// ---- part 1: RAID-0 scaling ----

type fleetScaleRow struct {
	devs         int
	wMBps, rMBps float64
}

func runFleetScaling(o Options, rep *Report) {
	span := int64(64) << 20
	if o.Quick {
		span = 16 << 20
	}
	var rows []fleetScaleRow
	for _, n := range []int{1, 2, 4} {
		rows = append(rows, runFleetScalePoint(o, n, span))
	}

	s := rep.section("RAID-0 scaling: one striped volume, 4K randread QD32x2 / 64K seqwrite QD32")
	t := s.table("devices", "write MB/s", "read MB/s", "write x", "read x")
	for _, r := range rows {
		t.add(num("%.0f", r.devs), mb(r.wMBps), mb(r.rMBps),
			num("%.2f", r.wMBps/rows[0].wMBps), num("%.2f", r.rMBps/rows[0].rMBps))
	}
	s.note("", fmt.Sprintf("1->4 devices: write %.2fx, read %.2fx (paper shape: host striping scales",
		rows[2].wMBps/rows[0].wMBps, rows[2].rMBps/rows[0].rMBps),
		"across drives the way pblk scales across PUs inside one drive)")
}

func runFleetScalePoint(o Options, devs int, span int64) fleetScaleRow {
	row := fleetScaleRow{devs: devs}
	env := sim.NewEnv(o.Seed)
	env.Go("fleet-scale", func(p *sim.Proc) {
		mgr, err := volume.NewManager(p, env, fleetConfig(o, devs, 0))
		check(err)
		ids := make([]int, devs)
		for i := range ids {
			ids[i] = i
		}
		v, err := mgr.CreateVolume("stripe", volume.Stripe(64<<10, ids...), volume.Options{})
		check(err)
		if span > v.Capacity()/2 {
			span = alignDown(v.Capacity()/2, 1<<20)
		}
		check(fio.Prepare(p, v, 0, span))
		rd := mustRun(p, v, fio.Job{
			Name: "scale-read", Pattern: fio.RandRead, BS: 4 << 10, QD: 32, NumJobs: 2,
			Size: span, Runtime: o.Duration, Seed: o.Seed + 1,
		})
		row.rMBps = rd.ReadMBps()
		wr := mustRun(p, v, fio.Job{
			Name: "scale-write", Pattern: fio.SeqWrite, BS: 64 << 10, QD: 32,
			Size: span, Runtime: o.Duration, Seed: o.Seed + 2,
		})
		row.wMBps = wr.WriteMBps()
		stopFleet(p, mgr)
	})
	env.Run()
	return row
}

// ---- part 2: failover and rebuild drill ----

// fleetFill writes a position-dependent pattern so a checksum scan
// detects any lost, stale, or misplaced chunk.
func fleetFill(buf []byte, off int64) {
	for i := range buf {
		x := off + int64(i)
		buf[i] = byte(x) ^ byte(x>>11) ^ 0xD6
	}
}

func fleetWritePattern(p *sim.Proc, v *volume.Volume, size int64) error {
	const step = 256 << 10
	buf := make([]byte, step)
	for off := int64(0); off < size; off += step {
		fleetFill(buf, off)
		if err := v.Write(p, off, buf, step); err != nil {
			return err
		}
	}
	return v.Flush(p)
}

// fleetVerifyPattern rereads the dataset and counts mismatched bytes.
func fleetVerifyPattern(p *sim.Proc, v *volume.Volume, size int64) (int64, error) {
	const step = 256 << 10
	buf := make([]byte, step)
	want := make([]byte, step)
	var bad int64
	for off := int64(0); off < size; off += step {
		if err := v.Read(p, off, buf, step); err != nil {
			return bad, err
		}
		fleetFill(want, off)
		for i := range buf {
			if buf[i] != want[i] {
				bad++
			}
		}
	}
	return bad, nil
}

type fleetPhase struct {
	name string
	res  *fio.Result
}

func runFleetFailover(o Options, rep *Report) {
	data := int64(48) << 20
	rebuildRate := 200.0
	if o.Quick {
		data = 12 << 20
	}

	var (
		phases                 []fleetPhase
		mismDegraded, mismDone int64
		rebuildTime            time.Duration
		rebuildOK              bool
		vstats                 volume.Stats
		status                 volume.Status
	)
	env := sim.NewEnv(o.Seed + 100)
	env.Go("fleet-failover", func(p *sim.Proc) {
		mgr, err := volume.NewManager(p, env, fleetConfig(o, 4, 1))
		check(err)
		v, err := mgr.CreateVolume("vol", volume.StripeOfMirrors(128<<10, []int{0, 1}, []int{2, 3}),
			volume.Options{Rebuild: volume.RebuildConfig{RateMBps: rebuildRate}})
		check(err)
		if data > v.Capacity()/2 {
			data = alignDown(v.Capacity()/2, 1<<20)
		}
		check(fleetWritePattern(p, v, data))

		readJob := func(name string, seed int64) *fio.Result {
			return mustRun(p, v, fio.Job{
				Name: name, Pattern: fio.RandRead, BS: 4 << 10, QD: 16,
				Size: data, Runtime: o.Duration, Seed: seed,
			})
		}
		phases = append(phases, fleetPhase{"healthy", readJob("healthy", o.Seed+3)})

		// Kill one mirror member halfway through a running workload.
		env.Go("fleet-killer", func(kp *sim.Proc) {
			kp.Sleep(o.Duration / 2)
			mgr.Kill(1)
		})
		phases = append(phases, fleetPhase{"kill mid-run", readJob("kill", o.Seed+4)})
		phases = append(phases, fleetPhase{"degraded", readJob("degraded", o.Seed+5)})

		mismDegraded, err = fleetVerifyPattern(p, v, data)
		check(err)

		// Online rebuild onto the hot spare, reads still running.
		sp := mgr.TakeSpare()
		if sp == nil {
			check(errors.New("fleet: no hot spare in pool"))
		}
		check(v.AttachSpare(sp))
		start := env.Now()
		var during *fio.Result
		reader := env.Go("fleet-rebuild-reader", func(rp *sim.Proc) {
			during = mustRun(rp, v, fio.Job{
				Name: "during-rebuild", Pattern: fio.RandRead, BS: 4 << 10, QD: 16,
				Size: data, Runtime: o.Duration, Seed: o.Seed + 6,
			})
		})
		rebuildOK = v.WaitRebuild(p)
		rebuildTime = env.Now() - start
		p.Wait(reader.Done())
		phases = append(phases, fleetPhase{"during rebuild", during})

		phases = append(phases, fleetPhase{"rebuilt", readJob("rebuilt", o.Seed+7)})
		mismDone, err = fleetVerifyPattern(p, v, data)
		check(err)
		vstats = v.Stats()
		status = v.Status()
		stopFleet(p, mgr)
	})
	env.Run()

	s := rep.section("Failover drill: stripe[2]xmirror[2] + hot spare, member killed mid-workload")
	t := s.table("phase", "read MB/s", "p50 us", "p99 us", "p99.9 us", "errors")
	for _, ph := range phases {
		t.add(label(ph.name), mb(ph.res.ReadMBps()),
			us(ph.res.ReadLat.Percentile(50)), us(ph.res.ReadLat.Percentile(99)),
			us(ph.res.ReadLat.Percentile(99.9)), num("%.0f", ph.res.Errors))
	}
	s.note("", fmt.Sprintf("dataset: %d MB mirrored; checksum scan degraded: %d mismatched bytes; after rebuild: %d",
		data>>20, mismDegraded, mismDone),
		// The engine reconstructs one full member column: capacity/2 for a
		// two-column stripe.
		fmt.Sprintf("rebuild: %.0f MB in %s ms (rate cap %.0f MB/s), success=%v; volume now %s, degraded=%v",
			float64(status.Capacity/2)/1e6, ms(rebuildTime).text, rebuildRate, rebuildOK,
			status.Layout, status.Degraded),
		fmt.Sprintf("volume stats: %d degraded chunk reads, %d retried reads, %d writes parked behind copy window, %d member deaths",
			vstats.DegradedReads, vstats.RetriedReads, vstats.ParkedWrites, vstats.MemberDeaths),
		"paper shape: acknowledged data survives a device death with zero loss; degraded and",
		"rebuild tails stay bounded because the copy engine is rate-capped below device bandwidth")
}
