package sqlbench

import (
	"errors"
	"testing"
	"time"

	"repro/internal/lightnvm"
	"repro/internal/nullblk"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

func newNull() (*sim.Env, *nullblk.Device) {
	env := sim.NewEnv(1)
	nb := nullblk.New(nullblk.Config{
		SectorSize: 4096, CapacityB: 4 << 30,
		ReadLatency: 80 * time.Microsecond, WriteLatency: 100 * time.Microsecond,
	})
	return env, nb
}

func TestOLTPRuns(t *testing.T) {
	env, nb := newNull()
	cfg := DefaultOLTP()
	cfg.CommitGroup = 1 // flush on every commit for this check
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		res = RunOLTP(p, env, nb, cfg, 100*time.Millisecond)
	})
	env.Run()
	if res.Txns == 0 || res.TPS == 0 {
		t.Fatalf("no transactions: %+v", res)
	}
	if res.Flushes == 0 {
		t.Fatal("OLTP must flush per commit")
	}
	if res.Flushes < res.Txns {
		t.Fatalf("flushes %d < txns %d", res.Flushes, res.Txns)
	}
	if res.RedoBytes == 0 {
		t.Fatal("no redo written")
	}
}

func TestOLTPIsCPUBound(t *testing.T) {
	// Doubling CPU per transaction should roughly halve TPS on a fast
	// device (the paper: "both workloads are currently CPU bound").
	run := func(cpu time.Duration) float64 {
		env, nb := newNull()
		cfg := DefaultOLTP()
		cfg.CPUPerTxn = cpu
		cfg.BufferPoolHit = 1.0 // no data reads: isolate CPU
		var res *Result
		env.Go("main", func(p *sim.Proc) {
			res = RunOLTP(p, env, nb, cfg, 100*time.Millisecond)
		})
		env.Run()
		return res.TPS
	}
	fast, slow := run(200*time.Microsecond), run(400*time.Microsecond)
	ratio := fast / slow
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("tps ratio = %.2f, want ~2 (CPU bound)", ratio)
	}
}

func TestOLAPFlushesRare(t *testing.T) {
	env, nb := newNull()
	var oltp, olap *Result
	env.Go("main", func(p *sim.Proc) {
		oltp = RunOLTP(p, env, nb, DefaultOLTP(), 50*time.Millisecond)
		olap = RunOLAP(p, env, nb, DefaultOLAP(), 50*time.Millisecond)
	})
	env.Run()
	if olap.Txns == 0 {
		t.Fatal("no OLAP queries")
	}
	// Paper: 44,000 flushes OLTP vs 400 OLAP — about two orders.
	if olap.Flushes*10 > oltp.Flushes {
		t.Fatalf("OLAP flushes (%d) not rare vs OLTP (%d)", olap.Flushes, oltp.Flushes)
	}
}

func TestOLAPScans(t *testing.T) {
	env, nb := newNull()
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		res = RunOLAP(p, env, nb, DefaultOLAP(), 100*time.Millisecond)
	})
	env.Run()
	if res.DataReadBytes == 0 {
		t.Fatal("OLAP read no data")
	}
	if res.DataReadBytes < 8*res.RedoBytes {
		t.Fatal("OLAP should be read-dominated")
	}
}

func TestCleanerWritesBack(t *testing.T) {
	env, nb := newNull()
	var res *Result
	env.Go("main", func(p *sim.Proc) {
		res = RunOLTP(p, env, nb, DefaultOLTP(), 100*time.Millisecond)
	})
	env.Run()
	if res.DataWriteBytes == 0 {
		t.Fatal("page cleaner wrote nothing despite dirty pages")
	}
}

func TestCommitGroupBatchesFlushes(t *testing.T) {
	run := func(group int) *Result {
		env, nb := newNull()
		cfg := DefaultOLTP()
		cfg.CommitGroup = group
		var res *Result
		env.Go("main", func(p *sim.Proc) {
			res = RunOLTP(p, env, nb, cfg, 50*time.Millisecond)
		})
		env.Run()
		return res
	}
	single, batched := run(1), run(8)
	if batched.Txns == 0 {
		t.Fatal("no txns")
	}
	perTxnSingle := float64(single.Flushes) / float64(single.Txns)
	perTxnBatched := float64(batched.Flushes) / float64(batched.Txns)
	if perTxnBatched >= perTxnSingle/2 {
		t.Fatalf("group commit did not reduce flush rate: %.3f vs %.3f", perTxnBatched, perTxnSingle)
	}
}

// TestRunsOnStoppedPblk: both workloads on a stopped pblk target return
// ErrStopped in their result instead of panicking, from the clients and
// the page cleaner alike.
func TestRunsOnStoppedPblk(t *testing.T) {
	env := sim.NewEnv(3)
	cfg := ocssd.DefaultConfig(ppa.Geometry{
		Channels: 2, PUsPerChannel: 2, PlanesPerPU: 2,
		BlocksPerPlane: 40, PagesPerBlock: 32,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	})
	cfg.Seed = 3
	dev, err := ocssd.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	env.Go("main", func(p *sim.Proc) {
		k, err := pblk.New(p, lightnvm.Register("d", dev), "pblk0", pblk.Config{ActivePUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Stop(p); err != nil {
			t.Fatal(err)
		}
		results = append(results,
			RunOLTP(p, env, k, DefaultOLTP(), 50*time.Millisecond),
			RunOLAP(p, env, k, DefaultOLAP(), 50*time.Millisecond))
	})
	env.Run()
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for _, r := range results {
		if !errors.Is(r.Err, pblk.ErrStopped) || r.Txns != 0 {
			t.Errorf("%s on a stopped pblk: Err %v, %d txns; want ErrStopped, 0", r.Name, r.Err, r.Txns)
		}
	}
}
