// Latency isolation (the paper's Figure 8 scenario), three ways. A
// latency-critical 4K random reader shares one open-channel SSD with a
// bulk 64K writer:
//
//  1. partitioned pblk targets — the media manager carves the device into
//     two PU ranges (`nvm create` with lun_begin/lun_end) and each tenant
//     gets its own block device; the writer's programs and GC never touch
//     the reader's PUs, so the reader's tail stays flat with no
//     application changes;
//  2. one shared pblk — both tenants on a single full-device block
//     target; the FTL stripes them over the same PUs and reads queue
//     behind writes;
//  3. raw PPA placement — each tenant on a raw target, the FTL-less view
//     of a PU range, placing its data itself (the paper's original
//     demonstration; what partitioned pblk targets package up behind an
//     overwritable block API).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fio"
	"repro/internal/lightnvm"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/sim"
)

const runFor = 80 * time.Millisecond

// align rounds n down to a multiple of unit, keeping regions request-aligned.
func align(n, unit int64) int64 { return n / unit * unit }

func main() {
	partitioned()
	shared()
	rawPPA()
}

// tenantMix runs the reader/writer pair over two block devices (which may
// be the same device) and reports the reader's latency summary.
func tenantMix(p *sim.Proc, env *sim.Env, rdev, wdev blockdev.Device, rOff, rSize, wOff, wSize int64) fio.Result {
	if err := fio.Prepare(p, rdev, rOff, rSize); err != nil {
		log.Fatal(err)
	}
	done := env.NewEvent()
	env.Go("bulk-writer", func(pw *sim.Proc) {
		if _, err := fio.Run(pw, wdev, fio.Job{Name: "bulk", Pattern: fio.SeqWrite, BS: 64 << 10,
			QD: 8, Offset: wOff, Size: wSize, Runtime: runFor}); err != nil {
			log.Fatal(err)
		}
		done.Signal()
	})
	r, err := fio.Run(p, rdev, fio.Job{Name: "latency", Pattern: fio.RandRead, BS: 4 << 10,
		Offset: rOff, Size: rSize, Runtime: runFor, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	p.Wait(done)
	return *r
}

// partitioned mounts two pblk targets over disjoint PU ranges of one
// device: the reader tenant on the first half, the writer on the second.
func partitioned() {
	env := sim.NewEnv(7)
	dev, err := ocssd.New(env, ocssd.DefaultConfig(24))
	if err != nil {
		log.Fatal(err)
	}
	ln := lightnvm.Register("nvme0n1", dev)
	half := dev.Geometry().TotalPUs() / 2
	env.Go("partitioned", func(p *sim.Proc) {
		rt, err := ln.CreateTarget(p, "pblk", "pblk-lat",
			lightnvm.PURange{Begin: 0, End: half}, pblk.Config{})
		if err != nil {
			log.Fatal(err)
		}
		wt, err := ln.CreateTarget(p, "pblk", "pblk-bulk",
			lightnvm.PURange{Begin: half, End: 2 * half}, pblk.Config{})
		if err != nil {
			log.Fatal(err)
		}
		kr, kw := rt.(*pblk.Pblk), wt.(*pblk.Pblk)
		size := align(kr.Capacity()/8, 256<<10)
		r := tenantMix(p, env, kr, kw, 0, size, 0, align(kw.Capacity()/8, 64<<10))
		s := r.ReadLat.Summarize()
		fmt.Printf("partitioned pblk targets: reader p99 = %v, max = %v (own PU range %v: flat)\n",
			s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond), kr.Partition())
		if err := ln.RemoveTarget(p, "pblk-lat"); err != nil {
			log.Fatal(err)
		}
		if err := ln.RemoveTarget(p, "pblk-bulk"); err != nil {
			log.Fatal(err)
		}
	})
	env.Run()
}

// shared runs the same mix through a single full-device pblk: reads queue
// behind writes on whatever PU the FTL chose.
func shared() {
	env := sim.NewEnv(7)
	dev, err := ocssd.New(env, ocssd.DefaultConfig(24))
	if err != nil {
		log.Fatal(err)
	}
	ln := lightnvm.Register("nvme0n1", dev)
	env.Go("shared", func(p *sim.Proc) {
		k, err := pblk.New(p, ln, "pblk0", pblk.Config{})
		if err != nil {
			log.Fatal(err)
		}
		defer k.Stop(p)
		size := align(k.Capacity()/8, 256<<10)
		r := tenantMix(p, env, k, k, 0, size, size, size)
		s := r.ReadLat.Summarize()
		fmt.Printf("shared pblk target:       reader p99 = %v, max = %v (reads stuck behind writes)\n",
			s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	})
	env.Run()
}

// rawPPA is the paper's original application-managed form: no FTL at all,
// each tenant on a raw target over PUs of its own, placing its data itself.
func rawPPA() {
	env := sim.NewEnv(7)
	dev, err := ocssd.New(env, ocssd.DefaultConfig(24))
	if err != nil {
		log.Fatal(err)
	}
	ln := lightnvm.Register("nvme0n1", dev)
	env.Go("raw-ppa", func(p *sim.Proc) {
		rt, err := ln.CreateTarget(p, "raw", "raw-lat", lightnvm.PURange{Begin: 0, End: 4}, nil)
		if err != nil {
			log.Fatal(err)
		}
		wt, err := ln.CreateTarget(p, "raw", "raw-bulk", lightnvm.PURange{Begin: 64, End: 68}, nil) // other channels
		if err != nil {
			log.Fatal(err)
		}
		rr, rw := rt.(*lightnvm.Raw), wt.(*lightnvm.Raw)
		r := tenantMix(p, env, rr, rw, 0, rr.BlockBytes(4), 0, rw.BlockBytes(6))
		s := r.ReadLat.Summarize()
		fmt.Printf("raw PPA placement:        reader p99 = %v, max = %v (application-managed PUs)\n",
			s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	})
	env.Run()
}
