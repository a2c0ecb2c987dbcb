package pblk

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// dirtyDevice builds a device with a representative mess on media — closed
// groups, open (partial) groups, buffered data lost to a crash — so scan
// recovery has every case to chew on. Deterministic for a given seed pair.
func dirtyDevice(t *testing.T) *env {
	t.Helper()
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		span := k.Capacity() / 2
		bs := int64(16384)
		// Sequential fill, then scattered overwrites to strand garbage.
		for off := int64(0); off+bs <= span; off += bs {
			if err := k.Write(p, off, fill(int(bs), byte(off/bs)), bs); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			off := rng.Int63n(span/bs) * bs
			if err := k.Write(p, off, fill(int(bs), byte(i)), bs); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		// A tail of unflushed writes leaves groups open at the crash.
		for i := 0; i < 8; i++ {
			if err := k.Write(p, int64(i)*bs, fill(int(bs), 0xAA), bs); err != nil {
				t.Fatal(err)
			}
		}
		k.Crash()
	})
	return e
}

// TestRecoverScanParallelMatchesSequential mounts two identically dirtied
// devices, one with the default per-PU parallel classify chains and one
// with the sequential scan, and requires byte-identical replayed state —
// the guard for the parallel recovery rewrite. It also checks the scan
// actually ran concurrently: the parallel mount spends less virtual time
// than the serialized one.
func TestRecoverScanParallelMatchesSequential(t *testing.T) {
	mount := func(sequential bool) (l2p []uint64, states []groupState, scan time.Duration) {
		e := dirtyDevice(t)
		e.run(func(p *sim.Proc) {
			k, err := New(p, e.lnvm, "pblk1", Config{ActivePUs: 4, sequentialRecoverScan: sequential})
			if err != nil {
				t.Fatal(err)
			}
			defer k.Stop(p)
			if k.Stats.Recoveries != 1 {
				t.Fatalf("Recoveries = %d, want 1 (scan recovery)", k.Stats.Recoveries)
			}
			l2p = append([]uint64(nil), k.l2p...)
			for _, g := range k.groups {
				states = append(states, g.state)
			}
			scan = k.Stats.RecoverScanTime
		})
		return l2p, states, scan
	}
	pl2p, pstates, ptime := mount(false)
	sl2p, sstates, stime := mount(true)
	if len(pl2p) != len(sl2p) {
		t.Fatalf("l2p sizes differ: %d vs %d", len(pl2p), len(sl2p))
	}
	for i := range pl2p {
		if pl2p[i] != sl2p[i] {
			t.Fatalf("replayed L2P diverges at lba %d: parallel %x, sequential %x", i, pl2p[i], sl2p[i])
		}
	}
	for i := range pstates {
		if pstates[i] != sstates[i] {
			t.Fatalf("group %d state diverges: parallel %v, sequential %v", i, pstates[i], sstates[i])
		}
	}
	if ptime <= 0 || stime <= 0 {
		t.Fatalf("RecoverScanTime not recorded: parallel %v, sequential %v", ptime, stime)
	}
	if ptime >= stime {
		t.Fatalf("parallel scan (%v) not faster than sequential (%v)", ptime, stime)
	}
}

// TestDeterministicMixedWorkload drives two fresh environments with the
// same seed through a mixed read/write/flush workload heavy enough to keep
// GC running, then requires identical event interleavings as observed
// through every stat counter and the full L2P. This is the determinism
// guard for the continuation rewrite of the device and admission paths.
func TestDeterministicMixedWorkload(t *testing.T) {
	type outcome struct {
		stats    Stats
		devStats string
		l2p      []uint64
		now      time.Duration
	}
	run := func() outcome {
		var out outcome
		e := newEnv(t, testDeviceConfig())
		e.run(func(p *sim.Proc) {
			k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.3})
			defer k.Stop(p)
			q := blockdev.OpenQueue(e.sim, k, 16)
			span := k.Capacity() / 6
			bs := int64(16384)
			rng := rand.New(rand.NewSource(42))
			inflight := 0
			var kick *sim.Event
			onDone := func(r *blockdev.Request) {
				inflight--
				if kick != nil {
					kick.Signal()
				}
			}
			buf := fill(int(bs), 1)
			// Mixed ops at QD16, repeatedly overwriting a sixth of the
			// capacity: enough pressure to recycle blocks several times.
			for i := 0; i < 16000; i++ {
				for inflight >= 16 {
					kick = e.sim.NewEvent()
					p.Wait(kick)
					kick = nil
				}
				off := rng.Int63n(span/bs) * bs
				req := &blockdev.Request{Off: off, Length: bs, OnComplete: onDone}
				switch {
				case i%7 == 3:
					req.Op = blockdev.ReqRead
					req.Buf = make([]byte, bs)
				case i%31 == 17:
					req.Op = blockdev.ReqFlush
					req.Off, req.Length = 0, 0
				default:
					req.Op = blockdev.ReqWrite
					req.Buf = buf
				}
				inflight++
				q.Submit(req)
			}
			q.Drain(p)
			if k.Stats.GCBlocksRecycled == 0 {
				t.Fatal("workload did not trigger GC; determinism test too weak")
			}
			out.stats = k.Stats
			out.devStats = fmt.Sprintf("%+v", e.dev.Stats)
			out.l2p = append([]uint64(nil), k.l2p...)
			out.now = e.sim.Now()
		})
		return out
	}
	a, b := run(), run()
	if a.now != b.now {
		t.Fatalf("virtual end time diverged: %v vs %v", a.now, b.now)
	}
	if a.stats != b.stats {
		t.Fatalf("pblk stats diverged:\n  run1: %+v\n  run2: %+v", a.stats, b.stats)
	}
	if a.devStats != b.devStats {
		t.Fatalf("device stats diverged:\n  run1: %s\n  run2: %s", a.devStats, b.devStats)
	}
	for i := range a.l2p {
		if a.l2p[i] != b.l2p[i] {
			t.Fatalf("L2P diverged at lba %d", i)
		}
	}
}

// TestSteadyStateSpawnsNoGoroutines is the spawn-counter guard for the
// goroutine-free fast path: once the target is mounted and its writers
// are up, queue reads, writes and flushes — including the device-level
// media reads, programs and the ring-admission pump — must not start a
// single new simulation process.
func TestSteadyStateSpawnsNoGoroutines(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		q := blockdev.OpenQueue(e.sim, k, 8)
		bs := int64(16384)
		// Settle: first writes open groups, prime lanes.
		for i := int64(0); i < 4; i++ {
			if err := k.Write(p, i*bs, fill(int(bs), 5), bs); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		base := e.sim.Spawns()
		inflight := 0
		var kick *sim.Event
		onDone := func(r *blockdev.Request) {
			if r.Err != nil {
				t.Errorf("request failed: %v", r.Err)
			}
			inflight--
			if kick != nil {
				kick.Signal()
			}
		}
		buf := make([]byte, bs)
		for i := 0; i < 200; i++ {
			for inflight >= 8 {
				kick = e.sim.NewEvent()
				p.Wait(kick)
				kick = nil
			}
			req := &blockdev.Request{Off: int64(i%16) * bs, Length: bs, OnComplete: onDone}
			switch {
			case i%3 == 0:
				req.Op = blockdev.ReqRead
				req.Buf = buf
			case i%41 == 11:
				req.Op = blockdev.ReqFlush
				req.Off, req.Length = 0, 0
			default:
				req.Op = blockdev.ReqWrite
			}
			inflight++
			q.Submit(req)
		}
		q.Drain(p)
		if got := e.sim.Spawns(); got != base {
			t.Fatalf("steady-state queue I/O spawned %d goroutine(s); fast path must spawn none", got-base)
		}
	})
}
