package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fio"
	"repro/internal/lsmdb"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
	"repro/internal/volume"
)

// The micros time one layer's primitive from outside, on an otherwise idle
// stack: host nanoseconds per call of the public function the datapath
// above it uses. Each runs a fixed count, so only the host clock varies.

// microSim: Schedule + fire of a timed event, 64 interleaved chains so the
// heap holds a realistic number of pending entries.
func microSim() float64 {
	const chains, perChain = 64, 32_000
	env := sim.NewEnv(1)
	for c := 0; c < chains; c++ {
		left := perChain
		gap := time.Duration(900+c) * time.Nanosecond
		var fire func()
		fire = func() {
			if left--; left > 0 {
				env.Schedule(gap, fire)
			}
		}
		env.Schedule(gap, fire)
	}
	t0 := time.Now()
	env.Run()
	return float64(time.Since(t0).Nanoseconds()) / (chains * perChain)
}

// microNand programs and reads every page of a bare die's blocks, half of
// them with nil payload (what fio traffic stores) and half with a 16 KiB
// page (what metadata, lsmdb and verification traffic stores).
func microNand() (programNs, readNs float64, err error) {
	dims := nand.Dims{Planes: 2, BlocksPerPlane: 32, PagesPerBlock: 256, SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64}
	die := nand.NewDie(dims, characterizationMedia(), rand.New(rand.NewSource(1)))
	page, oob := make([]byte, dims.PageBytes()), make([]byte, dims.OOBPerPage)
	payload := func(blk int) []byte {
		if blk%2 == 0 {
			return nil
		}
		return page
	}
	n := 0
	t0 := time.Now()
	for pl := 0; pl < dims.Planes; pl++ {
		for b := 0; b < dims.BlocksPerPlane; b++ {
			for pg := 0; pg < dims.PagesPerBlock; pg++ {
				if err := die.Program(pl, b, pg, payload(b), oob); err != nil {
					return 0, 0, fmt.Errorf("nand micro: program: %w", err)
				}
				n++
			}
		}
	}
	programNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	t0 = time.Now()
	for pl := 0; pl < dims.Planes; pl++ {
		for b := 0; b < dims.BlocksPerPlane; b++ {
			for pg := 0; pg < dims.PagesPerBlock; pg++ {
				if _, _, err := die.Read(pl, b, pg); err != nil {
					return 0, 0, fmt.Errorf("nand micro: read: %w", err)
				}
			}
		}
	}
	readNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return programNs, readNs, nil
}

// ladderDevice is the compact 8-PU device the micros and the ladder share.
func ladderDevice() ocssd.Config { return volume.DefaultDeviceConfig(64) }

// microOCSSD: Submit → completion of a one-sector vector read, four
// chains deep so the device always has a command to run.
func microOCSSD() (float64, error) {
	const chains, perChain = 4, 50_000
	env := sim.NewEnv(1)
	dev, err := ocssd.New(env, ladderDevice())
	if err != nil {
		return 0, err
	}
	g := dev.Geometry()
	var ns float64
	env.Go("micro", func(p *sim.Proc) {
		pus := []int{0, 1, 2, 3}
		if err = fio.PreparePPA(p, dev, pus, 1); err != nil {
			return
		}
		done := env.NewEvent()
		running := chains
		t0 := time.Now()
		for c := 0; c < chains; c++ {
			ch, pu := dev.Format().PUAddr(pus[c])
			left, page := perChain, 0
			vec := &ocssd.Vector{Op: ocssd.OpRead, Addrs: make([]ppa.Addr, 1)}
			var next func(*ocssd.Completion)
			issue := func() {
				vec.Addrs[0] = ppa.Addr{Ch: ch, PU: pu, Page: page % g.PagesPerBlock, Sector: page % g.SectorsPerPage}
				page++
				dev.Submit(vec, next)
			}
			next = func(c *ocssd.Completion) {
				if c.Failed() && err == nil {
					err = fmt.Errorf("ocssd micro: %w", c.FirstErr())
				}
				dev.Recycle(c)
				if left--; left > 0 {
					issue()
				} else if running--; running == 0 {
					done.Signal()
				}
			}
			issue()
		}
		p.Wait(done)
		ns = float64(time.Since(t0).Nanoseconds()) / (chains * perChain)
	})
	env.Run()
	return ns, err
}

// microLSM: cache-resident gets and no-WAL puts on an engine whose
// memtable holds the whole key set, so no device I/O is issued; what is
// left is the engine's own host cost per operation (including the process
// switch its virtual CPU charge costs the simulator).
func microLSM() (getNs, putNs float64, err error) {
	const keys = 20_000
	env := sim.NewEnv(1)
	st := &stack{env: env}
	env.Go("micro", func(p *sim.Proc) {
		var k *pblk.Pblk
		if k, err = newPblkStack(p, st, waE2EGeometry(64), pblk.Config{ActivePUs: 2, OverProvision: 0.10}, 1); err != nil {
			return
		}
		cfg := lsmDBConfig(1, int64(k.ActivePUs())*k.EraseUnitBytes())
		cfg.DisableWAL = true
		cfg.TableSlotSize, cfg.ColdHints = 0, false
		cfg.MemtableSize = 128 << 20
		cfg.TableTargetSize = 0
		var db *lsmdb.DB
		if db, err = lsmdb.Open(p, env, k, cfg); err != nil {
			return
		}
		var key, val, dst []byte
		t0 := time.Now()
		for i := int64(0); i < keys; i++ {
			key, val = lsmKey(key, i), lsmVal(val, i, 0)
			if err = db.Put(p, key, val); err != nil {
				return
			}
		}
		putNs = float64(time.Since(t0).Nanoseconds()) / keys
		rng := rand.New(rand.NewSource(1))
		t0 = time.Now()
		for i := 0; i < keys; i++ {
			var ok bool
			if dst, ok, err = db.Get(p, lsmKey(key, rng.Int63n(keys)), dst); err != nil || !ok {
				err = fmt.Errorf("lsmdb micro: get: found=%v err=%v", ok, err)
				return
			}
		}
		getNs = float64(time.Since(t0).Nanoseconds()) / keys
	})
	env.Run()
	return getNs, putNs, err
}

func runMicros(m metrics) error {
	m["sim.host_ns_per_event"] = microSim()
	prog, read, err := microNand()
	if err != nil {
		return err
	}
	m["nand.host_ns_per_page_program"] = prog
	m["nand.host_ns_per_page_read"] = read
	vec, err := microOCSSD()
	if err != nil {
		return err
	}
	m["ocssd.host_ns_per_vector"] = vec
	get, put, err := microLSM()
	if err != nil {
		return err
	}
	m["lsmdb.get_hit_host_ns"] = get
	m["lsmdb.put_nowal_host_ns"] = put
	return nil
}
