package harness

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/lsmdb"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register("fig6", "Figure 6 + Table 2: RocksDB-style workloads on NVMe SSD vs OCSSD-128 vs OCSSD-4", runFig6)
}

// appDevice is one of the three devices Figures 6 and 7 run an application
// on: the NVMe SSD (activePUs < 0) or pblk over the open-channel SSD.
type appDevice struct {
	name      string
	activePUs int
}

var appDevices = []appDevice{{"NVMe SSD", -1}, {"OCSSD 128", 0}, {"OCSSD 4", 4}}

// build makes the device in env and returns it with its stop function.
func (a appDevice) build(p *sim.Proc, env *sim.Env, o Options) (blockdev.Device, func(*sim.Proc) error) {
	if a.activePUs < 0 {
		d, err := newBaseline(p, env, o)
		checkIn(a.name, err)
		return d, d.Stop
	}
	dev, err := ocssd.New(env, wearFreeConfig(ocssd.WestlakeGeometry(o.BlocksPerPlane), o.Seed))
	checkIn(a.name, err)
	k, err := pblk.New(p, lightnvm.Register("ocssd-embed", dev), fmt.Sprintf("pblk-%d", a.activePUs), pblk.Config{ActivePUs: a.activePUs})
	checkIn(a.name, err)
	return k, k.Stop
}

// runFig6 drives the LSM engine (RocksDB stand-in) through db_bench-like
// sequential write, random read, and read-while-writing workloads on the
// three devices of the paper. Table 2 reports throughput; Figure 6 the
// p95/p99/p99.9 latencies.
func runFig6(o Options) *Report {
	type devRun struct {
		name        string
		sw, rr, mix *lsmdb.BenchResult
	}
	var runs []devRun

	dur := 2 * o.Duration
	dbCfg := lsmdb.DefaultConfig()
	dbCfg.Seed = o.Seed
	// db_bench-scale knobs: group commit shares one sync per megabyte of
	// WAL across the four writer threads, and a smaller memtable makes
	// flush/compaction active within the measurement window.
	dbCfg.WALSyncBytes = 1 << 20
	dbCfg.MemtableSize = 8 << 20
	// The paper's readrandom throughput (~5 GB/s on all devices) is block-
	// cache dominated; device differences surface in the tail latencies. A
	// cache larger than the dataset keeps warm reads in RAM once filled.
	dbCfg.BlockCacheSize = 256 << 20
	fillEntries := int64(128 << 20 / (dbCfg.KeySize + dbCfg.ValueSize)) // ~128 MB dataset
	if o.Quick {
		fillEntries /= 4
	}

	for _, d := range appDevices {
		env := sim.NewEnv(o.Seed)
		run := devRun{name: d.name}
		env.Go("main", func(p *sim.Proc) {
			dev, stop := d.build(p, env, o)
			db, err := lsmdb.Open(p, env, dev, dbCfg)
			checkIn(d.name, err)
			run.sw = lsmdb.FillSeqN(p, db, 4, fillEntries)
			checkIn(d.name, run.sw.Err)
			db.Quiesce(p) // settle flush/compaction backlog between phases
			run.rr = lsmdb.ReadRandom(p, db, 4, dur)
			checkIn(d.name, run.rr.Err)
			run.mix = lsmdb.ReadWhileWriting(p, db, 4, dur)
			checkIn(d.name, run.mix.Err)
			checkIn(d.name, db.Close(p))
			stop(p)
		})
		env.Run()
		runs = append(runs, run)
	}

	rep := &Report{}
	t := rep.section("Table 2: throughput (MB/s) — paper: SW 276/396/80, RR 5064/5819/5319, Mixed 2208/3897/4825").
		table("workload", "NVMe SSD", "OCSSD 128", "OCSSD 4")
	get := func(name string, f func(devRun) *lsmdb.BenchResult) []cell {
		out := []cell{label(name)}
		for _, r := range runs {
			out = append(out, mb(f(r).UserMBps))
		}
		return out
	}
	t.add(get("SW (fillseq)", func(r devRun) *lsmdb.BenchResult { return r.sw })...)
	t.add(get("RR (readrandom)", func(r devRun) *lsmdb.BenchResult { return r.rr })...)
	t.add(get("Mixed (readwhilewriting)", func(r devRun) *lsmdb.BenchResult { return r.mix })...)

	s := rep.section("Figure 6: latency percentiles (us)")
	lt := s.table("workload", "device", "p95", "p99", "p99.9", "max")
	for _, wl := range []struct {
		name string
		get  func(devRun) *stats.Hist
	}{
		{"SW", func(r devRun) *stats.Hist { return &r.sw.Lat }},
		{"RR", func(r devRun) *stats.Hist { return &r.rr.Lat }},
		{"Mixed", func(r devRun) *stats.Hist { return &r.mix.ReadLat }},
	} {
		for _, r := range runs {
			h := wl.get(r)
			lt.add(label(wl.name), label(r.name), us(h.Percentile(95)), us(h.Percentile(99)), us(h.Percentile(99.9)), us(h.Max()))
		}
	}
	s.note("", "paper shape: OCSSD-4 writes are throughput-limited; random reads comparable across",
		"devices; OCSSD cuts SW p99.9 ~2x and Mixed p99+ ~3x vs the NVMe SSD.")
	return rep
}
