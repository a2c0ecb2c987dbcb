package pblk

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/nand"
	"repro/internal/sim"
)

// The dirty fixture writes 16 KiB chunks; its last dirtyTail writes, to chunks
// 0..dirtyTail-1 with seed dirtyTailSeed, are never flushed.
const (
	dirtyChunk    = 16384
	dirtyTail     = 8
	dirtyTailSeed = 0xAA
)

// dirtyDevice builds a device with a representative mess on media — closed
// groups, open (partial) groups, buffered data lost to a crash — so scan
// recovery has every case to chew on. Deterministic for a given seed pair.
// flushed[c] is the fill seed chunk c held when the last Flush returned:
// what a mount after the crash must read back.
func dirtyDevice(t *testing.T) (e *env, flushed []byte) {
	t.Helper()
	e = newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		bs := int64(dirtyChunk)
		chunks := k.Capacity() / 2 / bs
		flushed = make([]byte, chunks)
		write := func(c int64, seed byte) {
			if err := k.Write(p, c*bs, fill(dirtyChunk, seed), bs); err != nil {
				t.Fatal(err)
			}
		}
		// Sequential fill, then scattered overwrites to strand garbage.
		for c := int64(0); c < chunks; c++ {
			write(c, byte(c))
			flushed[c] = byte(c)
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			c := rng.Int63n(chunks)
			write(c, byte(i))
			flushed[c] = byte(i)
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		// A tail of unflushed writes leaves groups open at the crash.
		for c := int64(0); c < dirtyTail; c++ {
			write(c, dirtyTailSeed)
		}
		k.Crash()
	})
	return e, flushed
}

// TestRecoverScanRestoresWhatWasFlushed checks scan recovery against what
// the fixture wrote. The mounts run under the owner guard, so a scan process
// that bypassed the target's view would panic.
func TestRecoverScanRestoresWhatWasFlushed(t *testing.T) {
	e, flushed := dirtyDevice(t)
	e.lnvm.EnableOwnerGuard()
	mount := func(p *sim.Proc) *Pblk {
		k, err := New(p, e.lnvm, "pblk1", Config{ActivePUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if k.Stats.Recoveries != 1 || k.Stats.SnapshotLoads != 0 {
			t.Fatalf("Recoveries = %d, SnapshotLoads = %d, want a scan recovery", k.Stats.Recoveries, k.Stats.SnapshotLoads)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return k
	}
	e.run(func(p *sim.Proc) {
		k := mount(p)
		ss := k.geo.SectorSize
		got, tail := make([]byte, dirtyChunk), fill(dirtyChunk, dirtyTailSeed)
		for c, seed := range flushed {
			if err := k.Read(p, int64(c)*dirtyChunk, got, dirtyChunk); err != nil {
				t.Fatalf("chunk %d: read after recovery: %v", c, err)
			}
			old := fill(dirtyChunk, seed)
			for off := 0; off < dirtyChunk; off += ss {
				sec := got[off : off+ss]
				if bytes.Equal(sec, old[off:off+ss]) || c < dirtyTail && bytes.Equal(sec, tail[off:off+ss]) {
					continue
				}
				t.Fatalf("chunk %d sector %d: recovered neither its flushed value nor an unflushed overwrite", c, off/ss)
			}
		}

		// The first mount padded and closed every open group, so a crash now
		// leaves a second mount only the classify phase and the system
		// group's erase. Each read holds its PU for at least the command
		// overhead and the array read, so a scan that issues one command at
		// a time cannot beat their sum; one process per PU must halve it.
		k.Crash()
		readsBefore := e.dev.Stats.Reads
		k = mount(p)
		defer k.Stop(p)
		tm := e.dev.Timing()
		reads := e.dev.Stats.Reads - readsBefore - 1 // the snapshot probe precedes the scan
		serial := time.Duration(reads) * (tm.CmdOverhead + tm.PageRead)
		if scan := k.Stats.RecoverScanTime - tm.BlockErase; scan <= 0 || scan >= serial/2 {
			t.Fatalf("classify phase took %v; its %d reads take at least %v one at a time", scan, reads, serial)
		}
	})
}

// TestScanReclaimsForeignAndTornGroups plants, on blank media, three groups
// whose first page is not their own open mark. The scan must erase each back
// to free — or, when that erase fails, retire it — and mount regardless.
func TestScanReclaimsForeignAndTornGroups(t *testing.T) {
	run := func(t *testing.T, wornOut bool, want groupState, wantErases int, wantRetired int64) {
		devCfg := testDeviceConfig()
		if wornOut {
			// EraseFailProb would retire the system group too; a cycle limit
			// fails only the pre-worn blocks.
			devCfg.Media.PECycleLimit = 1
		}
		e := newEnv(t, devCfg)
		geo := e.dev.Geometry()
		foreign := make([]byte, geo.SectorSize)
		new(Pblk).encodeOpenMarkInto(foreign, &group{id: 7, seq: 3, prev: -1})
		badCRC := bytes.Clone(foreign)
		badCRC[32] ^= 0xFF
		pages := [][]byte{foreign, bytes.Repeat([]byte{0xA5}, geo.SectorSize), badCRC}
		const blk = 5
		for i, first := range pages {
			die := e.dev.Die(i + 1)
			page := make([]byte, geo.SectorsPerPage*geo.SectorSize)
			copy(page, first)
			for pl := 0; pl < geo.PlanesPerPU; pl++ {
				if wornOut {
					if err := die.Erase(pl, blk); err != nil {
						t.Fatal(err)
					}
				}
				if err := die.Program(pl, blk, 0, page, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.run(func(p *sim.Proc) {
			k := e.newPblk(p, Config{ActivePUs: 4})
			defer k.Stop(p)
			for i := range pages {
				g := k.groups[(i+1)*geo.BlocksPerPlane+blk]
				if g.state != want || g.erases != wantErases {
					t.Errorf("planted group %d: state %v, erases %d; want %v, %d", g.id, g.state, g.erases, want, wantErases)
				}
				for pl := 0; want == stFree && pl < geo.PlanesPerPU; pl++ {
					if _, _, err := e.dev.Die(g.gpu).Read(pl, g.blk, 0); !errors.Is(err, nand.ErrUnwritten) {
						t.Errorf("planted group %d plane %d: page 0 reads %v after reclaim, want ErrUnwritten", g.id, pl, err)
					}
				}
			}
			// A failed reclaim erase is counted as a failed GC erase is.
			if k.Stats.BadBlocks != wantRetired || k.Stats.EraseErrors != wantRetired {
				t.Errorf("BadBlocks %d, EraseErrors %d; want %d each", k.Stats.BadBlocks, k.Stats.EraseErrors, wantRetired)
			}
		})
	}
	t.Run("erased", func(t *testing.T) { run(t, false, stFree, 1, 0) })
	t.Run("erase-fails", func(t *testing.T) { run(t, true, stBad, 0, 3) })
}

// TestMountWithFailingErases mounts a device on which every erase fails.
// The scan's erase of the system group retires that group, as a failed GC
// erase retires a victim, and the mount goes on: flushed data survives a
// crash and a second mount, which finds the system group bad.
func TestMountWithFailingErases(t *testing.T) {
	devCfg := testDeviceConfig()
	devCfg.Media.EraseFailProb = 1
	e := newEnv(t, devCfg)
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		if k.Stats.BadBlocks != 1 || k.Stats.EraseErrors != 1 {
			t.Errorf("first mount: BadBlocks %d, EraseErrors %d; want 1 each", k.Stats.BadBlocks, k.Stats.EraseErrors)
		}
		data := fill(64<<10, 5)
		if err := k.Write(p, 0, data, int64(len(data))); err != nil {
			t.Fatal(err)
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		k.Crash()
		k2 := e.newPblk(p, Config{ActivePUs: 4})
		defer k2.Stop(p)
		got := make([]byte, len(data))
		if err := k2.Read(p, 0, got, int64(len(got))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("flushed data did not survive the crash")
		}
	})
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
