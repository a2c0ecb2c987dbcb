package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/bench/tracedev"
	"repro/internal/blockdev"
	"repro/internal/fio"
	"repro/internal/lightnvm"
	"repro/internal/nullblk"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/volume"
)

// The stack ladder replays the request shape the workload's top device saw
// in the traced pass (size, mix, queue depth, under the run's seed) on
// progressively taller stacks:
//
//	nullblk   fio + blockdev queue + sim: the floor every stack pays
//	ocssd     the bare device behind a static LBA→PPA map (reads; no FTL)
//	pblk      one full-device pblk
//	volume    a one-member volume.Stripe over that pblk
//
// Every rung is driven by the same fio job through a blockdev queue, so a
// rung's cost minus the rung below is what that layer adds. All rungs above
// nullblk use the same compact 8-PU device.

const ladderSpan = 64 << 20

// shape is a request shape the ladder replays.
type shape struct {
	bs      int
	readPct int
	qd      int
	ops     int64
}

// Each rung replays ladderBytes worth of requests, at most ladderMaxOps.
const (
	ladderBytes  = 15 << 30
	ladderMaxOps = 400_000
)

// shapeSeen is the mean request tr counted at the workload's top device over
// elapsed virtual time: bytes per read or write rounded to whole sectors, the
// share of reads among them, and the mean number of requests in flight
// (Little's law: arrival rate x mean time from submission to completion).
// For the fio workloads that is the job's own block size, mix and depth; for
// lsm-readwhilewriting it is what lsmdb asked of pblk.
func shapeSeen(tr *tracedev.Tracer, elapsed time.Duration, sectorSize int) shape {
	rw := tr.Reads + tr.Writes
	sectors := max(int(math.Round(ratio(tr.Bytes, rw)/float64(sectorSize))), 1)
	inFlight := float64(tr.Requests) * float64(tr.QueueWait.Mean()+tr.Service.Mean()) / float64(elapsed)
	sh := shape{
		bs:      sectors * sectorSize,
		readPct: int(math.Round(100 * ratio(tr.Reads, rw))),
		qd:      max(int(math.Round(inFlight)), 1),
	}
	sh.ops = min(ladderMaxOps, ladderBytes/int64(sh.bs))
	return sh
}

type rungResult struct {
	hostNsPerIO, allocsPerIO float64
	p50us                    float64
}

const ladderSlices = 8

// measureRung replays the job in ladderSlices equal slices (after one
// discarded slice that lets pools and free lists fill), collecting between
// slices like the timed runs do, and reports the median slice's host time.
func measureRung(p *sim.Proc, dev blockdev.Device, job fio.Job, ops int64) (rungResult, error) {
	var lat stats.Hist
	var wallPerOp []float64
	var mallocs uint64
	var done int64
	for i := 0; i <= ladderSlices; i++ {
		job.MaxOps = ops / ladderSlices
		job.Seed++
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		r, err := fio.Run(p, dev, job)
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return rungResult{}, err
		}
		n := r.Reads + r.Writes
		if r.Errors > 0 || n == 0 {
			return rungResult{}, fmt.Errorf("%d errors, %d completed", r.Errors, n)
		}
		if i == 0 {
			continue
		}
		wallPerOp = append(wallPerOp, float64(wall.Nanoseconds())/float64(n))
		mallocs += ms1.Mallocs - ms0.Mallocs
		done += n
		if r.Reads > 0 {
			lat.Merge(&r.ReadLat)
		} else {
			lat.Merge(&r.WriteLat)
		}
	}
	return rungResult{
		hostNsPerIO: median(wallPerOp),
		allocsPerIO: float64(mallocs) / float64(done),
		p50us:       quantileUS(&lat, 50),
	}, nil
}

// rawDev presents the bare open-channel device as a read-only block device:
// a static map stripes write units round-robin over the PUs, as pblk lays
// sequential data out, and each read becomes one vector command. It is the
// ladder's FTL-less rung.
type rawDev struct {
	dev  *ocssd.Device
	free []*rawRead
}

type rawRead struct {
	d    *rawDev
	vec  ocssd.Vector
	req  *blockdev.Request
	done func(*blockdev.Request)
	fin  func(*ocssd.Completion)
}

var errRawReadOnly = fmt.Errorf("ladder: the raw ocssd rung serves queued reads only")

func (d *rawDev) SectorSize() int { return d.dev.Geometry().SectorSize }
func (d *rawDev) Capacity() int64 { return ladderSpan }

func (d *rawDev) Read(*sim.Proc, int64, []byte, int64) error  { return errRawReadOnly }
func (d *rawDev) Write(*sim.Proc, int64, []byte, int64) error { return errRawReadOnly }
func (d *rawDev) Flush(*sim.Proc) error                       { return errRawReadOnly }
func (d *rawDev) Trim(*sim.Proc, int64, int64) error          { return errRawReadOnly }

func (d *rawDev) OpenQueue(env *sim.Env, depth int) blockdev.Queue {
	return blockdev.NewQueue(env, d, depth, d.issue)
}

func (d *rawDev) issue(req *blockdev.Request, done func(*blockdev.Request)) {
	if req.Op != blockdev.ReqRead {
		req.Err = errRawReadOnly
		done(req)
		return
	}
	var r *rawRead
	if n := len(d.free); n > 0 {
		r, d.free = d.free[n-1], d.free[:n-1]
	} else {
		r = &rawRead{d: d, vec: ocssd.Vector{Op: ocssd.OpRead}}
		r.fin = r.complete
	}
	r.req, r.done = req, done
	g := d.dev.Geometry()
	unit, nPUs := int64(g.PlanesPerPU*g.SectorsPerPage), int64(g.TotalPUs())
	lba, n := req.Off/int64(g.SectorSize), req.Length/int64(g.SectorSize)
	r.vec.Addrs = r.vec.Addrs[:0]
	for ; n > 0; lba, n = lba+1, n-1 {
		u, s := lba/unit, lba%unit
		ch, pu := d.dev.Format().PUAddr(int(u % nPUs))
		page := u / nPUs
		r.vec.Addrs = append(r.vec.Addrs, ppa.Addr{
			Ch: ch, PU: pu, Plane: int(s) / g.SectorsPerPage, Sector: int(s) % g.SectorsPerPage,
			Block: int(page) / g.PagesPerBlock, Page: int(page) % g.PagesPerBlock,
		})
	}
	d.dev.Submit(&r.vec, r.fin)
}

func (r *rawRead) complete(c *ocssd.Completion) {
	req, done := r.req, r.done
	req.Err = c.FirstErr()
	r.d.dev.Recycle(c)
	r.req, r.done = nil, nil
	r.d.free = append(r.d.free, r)
	done(req)
}

func (sh shape) job(name string, seed int64) fio.Job {
	j := fio.Job{Name: name, Pattern: fio.RandRW, RWMixRead: sh.readPct, BS: sh.bs, QD: sh.qd, Size: ladderSpan, Seed: seed}
	if sh.readPct == 100 {
		j.Pattern = fio.RandRead
	}
	return j
}

// blockRung measures the shape against a block device built by build,
// which also prefills the span.
func blockRung(name string, sh shape, seed int64, build func(p *sim.Proc, env *sim.Env) (blockdev.Device, error)) (rungResult, error) {
	env := sim.NewEnv(seed)
	var res rungResult
	var err error
	env.Go("ladder."+name, func(p *sim.Proc) {
		var dev blockdev.Device
		if dev, err = build(p, env); err != nil {
			return
		}
		res, err = measureRung(p, dev, sh.job(name, seed), sh.ops)
	})
	env.Run()
	lightnvm.UnregisterAll()
	return res, err
}

func runLadder(m metrics, sh shape, seed int64) error {
	rungs := map[string]func() (rungResult, error){
		"nullblk": func() (rungResult, error) {
			return blockRung("nullblk", sh, seed, func(*sim.Proc, *sim.Env) (blockdev.Device, error) {
				return nullblk.New(nullblk.DefaultConfig()), nil
			})
		},
		"ocssd": func() (rungResult, error) {
			reads := sh
			reads.readPct = 100 // the bare device cannot overwrite in place
			return blockRung("ocssd", reads, seed, func(p *sim.Proc, env *sim.Env) (blockdev.Device, error) {
				dev, err := ocssd.New(env, ladderDevice())
				if err != nil {
					return nil, err
				}
				g := dev.Geometry()
				pus := make([]int, g.TotalPUs())
				for i := range pus {
					pus[i] = i
				}
				blocks := int(ladderSpan / (int64(len(pus)) * int64(g.PlanesPerPU) * g.BlockBytes()))
				return &rawDev{dev: dev}, fio.PreparePPA(p, dev, pus, blocks)
			})
		},
		"pblk": func() (rungResult, error) {
			return blockRung("pblk", sh, seed, func(p *sim.Proc, env *sim.Env) (blockdev.Device, error) {
				dev, err := ocssd.New(env, ladderDevice())
				if err != nil {
					return nil, err
				}
				k, err := pblk.New(p, lightnvm.Register("ladder0", dev), "ladder-pblk", pblk.Config{OverProvision: 0.2})
				if err != nil {
					return nil, err
				}
				return k, fio.Prepare(p, k, 0, ladderSpan)
			})
		},
		"volume": func() (rungResult, error) {
			return blockRung("volume", sh, seed, func(p *sim.Proc, env *sim.Env) (blockdev.Device, error) {
				mgr, err := volume.NewManager(p, env, volume.Config{
					Devices: 1, OCSSD: ladderDevice(), Pblk: pblk.Config{OverProvision: 0.2},
					NamePrefix: "ladder", Seed: seed,
				})
				if err != nil {
					return nil, err
				}
				// Default (256 KiB) chunk: no request of the replayed shapes is
				// split, so the rung adds the fan-out machinery and nothing else.
				v, err := mgr.CreateVolume("ladder", volume.Stripe(0, 0), volume.Options{})
				if err != nil {
					return nil, err
				}
				return v, fio.Prepare(p, v, 0, ladderSpan)
			})
		},
	}
	for _, name := range ladderRungs {
		r, err := rungs[name]()
		if err != nil {
			return fmt.Errorf("ladder %s: %w", name, err)
		}
		m["ladder."+name+".host_ns_per_io"] = r.hostNsPerIO
		m["ladder."+name+".allocs_per_io"] = r.allocsPerIO
		m["ladder."+name+".sim_p50_us"] = r.p50us
	}
	return nil
}
