package fio

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/lightnvm"
	"repro/internal/nand"
	"repro/internal/nullblk"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

func newNull() (*sim.Env, *nullblk.Device) {
	return sim.NewEnv(1), nullblk.New(nullblk.DefaultConfig())
}

// mustRun panics on job-validation errors: it runs inside simulation
// processes, where panics propagate through env.Run to the test goroutine
// (t.Fatal must not be called from other goroutines).
func mustRun(t *testing.T, p *sim.Proc, dev *nullblk.Device, job Job) *Result {
	t.Helper()
	res, err := Run(p, dev, job)
	if err != nil {
		panic(err)
	}
	return res
}

func TestRunRespectsRuntime(t *testing.T) {
	env, dev := newNull()
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		res = mustRun(t, p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096, Runtime: 10 * time.Millisecond})
	})
	env.Run()
	if res.Elapsed < 10*time.Millisecond || res.Elapsed > 11*time.Millisecond {
		t.Fatalf("elapsed = %v, want ~10ms", res.Elapsed)
	}
	if res.Reads == 0 {
		t.Fatal("no reads issued")
	}
	// Null device: ~1.97µs per read, one worker → ~5000 reads in 10ms.
	if res.Reads < 4000 || res.Reads > 6000 {
		t.Fatalf("reads = %d, want ~5000", res.Reads)
	}
}

func TestMaxOpsStops(t *testing.T) {
	env, dev := newNull()
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		res = mustRun(t, p, dev, Job{Name: "t", Pattern: SeqWrite, BS: 4096, MaxOps: 100})
	})
	env.Run()
	if res.Writes != 100 {
		t.Fatalf("writes = %d, want 100", res.Writes)
	}
}

func TestMixedRatio(t *testing.T) {
	env, dev := newNull()
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		res = mustRun(t, p, dev, Job{Name: "t", Pattern: RandRW, RWMixRead: 80, BS: 4096, MaxOps: 10000})
	})
	env.Run()
	frac := float64(res.Reads) / float64(res.Reads+res.Writes)
	if frac < 0.77 || frac > 0.83 {
		t.Fatalf("read fraction = %.2f, want ~0.80", frac)
	}
}

func TestQueueDepthScalesThroughput(t *testing.T) {
	run := func(qd int) float64 {
		env, dev := newNull()
		var res *Result
		env.Go("main", func(p *sim.Proc) {
			res = mustRun(t, p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096, QD: qd, Runtime: 5 * time.Millisecond})
		})
		env.Run()
		return res.ReadMBps()
	}
	// Little's law on a fixed-latency device: QD requests in flight, each
	// taking ReadLatency, move QD × BS bytes per latency.
	lat := nullblk.DefaultConfig().ReadLatency.Seconds()
	for _, qd := range []int{1, 4, 8} {
		want := float64(qd) * 4096 / lat / 1e6
		if got := run(qd); math.Abs(got/want-1) > 0.001 {
			t.Errorf("QD%d throughput %.1f MB/s, want %.1f (QD × BS ÷ latency)", qd, got, want)
		}
	}
}

// TestSingleWorkerDrivesQD32 is the tentpole's acceptance check: one
// worker process (NumJobs=1) sustains QD=32 through the queue pair, with
// every completion's latency recorded.
func TestSingleWorkerDrivesQD32(t *testing.T) {
	run := func(qd int) *Result {
		env, dev := newNull()
		var res *Result
		env.Go("main", func(p *sim.Proc) {
			res = mustRun(t, p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096, QD: qd, NumJobs: 1, Runtime: 5 * time.Millisecond})
		})
		env.Run()
		return res
	}
	q1, q32 := run(1), run(32)
	if q32.ReadMBps() < 25*q1.ReadMBps() {
		t.Fatalf("QD32 = %.1f MB/s, want ≥25x QD1 (%.1f MB/s)", q32.ReadMBps(), q1.ReadMBps())
	}
	if int64(q32.ReadLat.Count()) != q32.Reads {
		t.Fatalf("latency samples %d != reads %d", q32.ReadLat.Count(), q32.Reads)
	}
}

func TestWriteRateLimit(t *testing.T) {
	env, dev := newNull()
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		res = mustRun(t, p, dev, Job{Name: "t", Pattern: SeqWrite, BS: 65536, WriteRateMBps: 200, Runtime: 50 * time.Millisecond})
	})
	env.Run()
	if mbps := res.WriteMBps(); mbps < 180 || mbps > 210 {
		t.Fatalf("rate-limited write = %.1f MB/s, want ~200", mbps)
	}
}

func TestSyncEvery(t *testing.T) {
	env, dev := newNull()
	env.Go("main", func(p *sim.Proc) {
		mustRun(t, p, dev, Job{Name: "t", Pattern: SeqWrite, BS: 4096, MaxOps: 100, SyncEvery: 10})
	})
	env.Run()
	if dev.Flushes != 10 {
		t.Fatalf("flushes = %d, want 10", dev.Flushes)
	}
}

func TestLatencyRecorded(t *testing.T) {
	env, dev := newNull()
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		res = mustRun(t, p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096, MaxOps: 50})
	})
	env.Run()
	if res.ReadLat.Count() != 50 {
		t.Fatalf("latency samples = %d", res.ReadLat.Count())
	}
	m := res.ReadLat.Mean()
	if m < 1900*time.Nanosecond || m > 2100*time.Nanosecond {
		t.Fatalf("mean latency = %v, want ~1.97µs", m)
	}
}

// ---- Job validation (the seed's small-region panics, now errors) ----

func TestRunRejectsRegionSmallerThanOneRequest(t *testing.T) {
	env, dev := newNull()
	env.Go("main", func(p *sim.Proc) {
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandRead, BS: 65536, Size: 4096, MaxOps: 1}); err == nil {
			t.Error("want error for region smaller than BS, got nil")
		}
	})
	env.Run()
}

func TestRunRejectsSeqWorkersExceedingSlots(t *testing.T) {
	env, dev := newNull()
	env.Go("main", func(p *sim.Proc) {
		// 8 sequential streams over a 4-request region: zero stride.
		if _, err := Run(p, dev, Job{Name: "t", Pattern: SeqRead, BS: 4096, NumJobs: 8, Size: 4 * 4096, MaxOps: 8}); err == nil {
			t.Error("want error for more sequential workers than slots, got nil")
		}
	})
	env.Run()
}

func TestRunRejectsNegativeDepthAndJobs(t *testing.T) {
	env, dev := newNull()
	env.Go("main", func(p *sim.Proc) {
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096, QD: -1, MaxOps: 1}); err == nil {
			t.Error("want error for negative QD, got nil")
		}
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096, NumJobs: -2, MaxOps: 1}); err == nil {
			t.Error("want error for negative NumJobs, got nil")
		}
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandRW, BS: 4096, RWMixRead: 150, MaxOps: 1}); err == nil {
			t.Error("want error for RWMixRead over 100, got nil")
		}
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandWrite, BS: 4096, WriteRateMBps: -5, MaxOps: 1}); err == nil {
			t.Error("want error for negative WriteRateMBps, got nil")
		}
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096, Runtime: -time.Second}); err == nil {
			t.Error("want error for negative Runtime, got nil")
		}
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096, MaxOps: -1}); err == nil {
			t.Error("want error for negative MaxOps, got nil")
		}
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096, Runtime: time.Millisecond, MaxOps: -1}); err == nil {
			t.Error("want error for negative MaxOps beside a positive Runtime, got nil")
		}
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandRead, BS: 4096}); err == nil {
			t.Error("want error for a job with neither Runtime nor MaxOps, got nil")
		}
	})
	env.Run()
}

func TestRunRejectsMisalignedBS(t *testing.T) {
	env, dev := newNull()
	env.Go("main", func(p *sim.Proc) {
		if _, err := Run(p, dev, Job{Name: "t", Pattern: RandRead, BS: 1000, MaxOps: 1}); err == nil {
			t.Error("want error for BS not a sector multiple, got nil")
		}
	})
	env.Run()
}

// ---- Direct PPA I/O: the one engine on raw (FTL-less) targets ----

// smallOCSSD is a wear-free 2 × 2 PU device with Westlake's 64 KiB write
// unit. The owner guard is on: a command of one raw target reaching a PU
// of another panics at the device.
func smallOCSSD(t *testing.T) (*sim.Env, *lightnvm.Device) {
	t.Helper()
	env := sim.NewEnv(3)
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	dev, err := ocssd.New(env, ocssd.Config{
		Geometry: ppa.Geometry{
			Channels: 2, PUsPerChannel: 2, PlanesPerPU: 4,
			BlocksPerPlane: 8, PagesPerBlock: 32,
			SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
		},
		Timing:    ocssd.DefaultTiming(),
		Media:     m,
		PageCache: true,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := lightnvm.Register("small", dev)
	ln.EnableOwnerGuard()
	return env, ln
}

// rawOn mounts a raw target on PUs [begin, end) and, with prepare set,
// fills the four blocks per PU the jobs below run over. Like rawJob it
// panics instead of t.Fatal: both run inside simulation processes.
func rawOn(p *sim.Proc, ln *lightnvm.Device, name string, begin, end int, prepare bool) (*lightnvm.Raw, int64) {
	v, err := ln.Reserve(name, lightnvm.PURange{Begin: begin, End: end})
	if err != nil {
		panic(err)
	}
	raw := lightnvm.NewRaw(v)
	size := raw.BlockBytes(4)
	if prepare {
		if err := Prepare(p, raw, 0, size); err != nil {
			panic(err)
		}
	}
	return raw, size
}

func rawJob(p *sim.Proc, raw *lightnvm.Raw, job Job) *Result {
	res, err := Run(p, raw, job)
	if err != nil || res.Errors > 0 {
		panic(fmt.Sprintf("job %s: err %v, result %+v", job.Name, err, res))
	}
	return res
}

func TestPPASeqWriteBandwidthSinglePU(t *testing.T) {
	// Table 1: single sequential PU write ≈ 47 MB/s.
	env, ln := smallOCSSD(t)
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		raw, size := rawOn(p, ln, "raw0", 0, 1, false)
		res = rawJob(p, raw, Job{Name: "w", Pattern: SeqWrite, BS: 64 * 1024, Size: size, Runtime: 200 * time.Millisecond})
	})
	env.Run()
	if mbps := res.WriteMBps(); mbps < 42 || mbps > 55 {
		t.Fatalf("single PU write = %.1f MB/s, want ~47", mbps)
	}
}

func TestPPASeqRead4KBandwidthSinglePU(t *testing.T) {
	// Table 1: single sequential PU read ≈ 105 MB/s at 4K (page cache
	// serves 3 of 4 sectors).
	env, ln := smallOCSSD(t)
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		raw, size := rawOn(p, ln, "raw0", 0, 1, true)
		res = rawJob(p, raw, Job{Name: "r", Pattern: SeqRead, BS: 4096, Size: size, Runtime: 100 * time.Millisecond})
	})
	env.Run()
	if mbps := res.ReadMBps(); mbps < 90 || mbps > 130 {
		t.Fatalf("single PU 4K seq read = %.1f MB/s, want ~105", mbps)
	}
}

func TestPPARandRead4KSlowerThanSeq(t *testing.T) {
	// Table 1: random 4K reads (~56 MB/s) lose the page-cache benefit.
	env, ln := smallOCSSD(t)
	var seq, rnd *Result
	env.Go("main", func(p *sim.Proc) {
		raw, size := rawOn(p, ln, "raw0", 0, 1, true)
		seq = rawJob(p, raw, Job{Name: "s", Pattern: SeqRead, BS: 4096, Size: size, Runtime: 50 * time.Millisecond})
		rnd = rawJob(p, raw, Job{Name: "r", Pattern: RandRead, BS: 4096, Size: size, Runtime: 50 * time.Millisecond, Seed: 9})
	})
	env.Run()
	if rnd.ReadMBps() >= seq.ReadMBps() {
		t.Fatalf("random (%.1f) should be slower than sequential (%.1f)", rnd.ReadMBps(), seq.ReadMBps())
	}
	if mbps := rnd.ReadMBps(); mbps < 35 || mbps > 70 {
		t.Fatalf("random 4K read = %.1f MB/s, want ~50", mbps)
	}
}

func TestPPAIsolatedStreamsDoNotInterfere(t *testing.T) {
	// The Fig 8 mechanism: a reader on its own PUs (0-1, channel 0) keeps
	// the uncontended ~86 µs beside a saturating writer on PUs 2-3
	// (channel 1).
	env, ln := smallOCSSD(t)
	var iso *Result
	env.Go("main", func(p *sim.Proc) {
		rd, size := rawOn(p, ln, "raw-read", 0, 2, true)
		wr, _ := rawOn(p, ln, "raw-write", 2, 4, false)
		wDone := env.NewEvent()
		env.Go("writer", func(pw *sim.Proc) {
			rawJob(pw, wr, Job{Name: "w", Pattern: SeqWrite, BS: 64 * 1024, Size: size, Runtime: 60 * time.Millisecond})
			wDone.Signal()
		})
		iso = rawJob(p, rd, Job{Name: "r", Pattern: RandRead, BS: 4096, Size: size, Runtime: 60 * time.Millisecond, Seed: 4})
		p.Wait(wDone)
	})
	env.Run()
	if p99 := iso.ReadLat.Percentile(99); iso.Reads == 0 || p99 > 250*time.Microsecond {
		t.Fatalf("%d isolated reads, p99 = %v, want flat", iso.Reads, p99)
	}
}

// ---- Block engine over pblk end to end ----

func TestBlockEngineOverPblk(t *testing.T) {
	env := sim.NewEnv(8)
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	dev, err := ocssd.New(env, ocssd.Config{
		Geometry: ppa.Geometry{
			Channels: 2, PUsPerChannel: 2, PlanesPerPU: 2,
			BlocksPerPlane: 40, PagesPerBlock: 32,
			SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
		},
		Timing:    ocssd.DefaultTiming(),
		Media:     m,
		PageCache: true,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := lightnvm.Register("d", dev)
	var wres, rres *Result
	env.Go("main", func(p *sim.Proc) {
		k, err := pblk.New(p, ln, "pblk0", pblk.Config{ActivePUs: 4})
		if err != nil {
			panic(err)
		}
		defer k.Stop(p)
		size := k.Capacity() / 2
		wres, err = Run(p, k, Job{Name: "fill", Pattern: SeqWrite, BS: 65536, Size: size, MaxOps: size / 65536})
		if err != nil {
			panic(err)
		}
		if err := k.Flush(p); err != nil {
			panic(err)
		}
		rres, err = Run(p, k, Job{Name: "read", Pattern: RandRead, BS: 4096, QD: 4, Size: size, Runtime: 50 * time.Millisecond})
		if err != nil {
			panic(err)
		}
	})
	env.Run()
	if wres.Errors != 0 || rres.Errors != 0 {
		t.Fatalf("errors: w=%d r=%d", wres.Errors, rres.Errors)
	}
	if wres.WriteMBps() < 50 {
		t.Fatalf("pblk fill bandwidth = %.1f MB/s, too low", wres.WriteMBps())
	}
	if rres.Reads == 0 {
		t.Fatal("no reads")
	}
}
