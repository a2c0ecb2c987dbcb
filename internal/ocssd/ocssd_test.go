package ocssd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/nand"
	"repro/internal/ppa"
	"repro/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig(8) // 8 blocks/plane keeps tests light
	cfg.Media.PECycleLimit = 0
	cfg.Media.WearLatencyFactor = 0
	return cfg
}

func newTestDevice(t *testing.T, cfg Config) (*sim.Env, *Device) {
	t.Helper()
	env := sim.NewEnv(1)
	dev, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, dev
}

// run executes fn as a simulation process and drives the sim to completion.
func run(env *sim.Env, fn func(p *sim.Proc)) {
	env.Go("test", fn)
	env.Run()
}

// writeUnit programs one full page on every plane of (ch, pu, blk, page).
func writeUnit(p *sim.Proc, d *Device, ch, pu, blk, page int, fill byte) *Completion {
	g := d.Geometry()
	var addrs []ppa.Addr
	var data [][]byte
	for pl := 0; pl < g.PlanesPerPU; pl++ {
		for s := 0; s < g.SectorsPerPage; s++ {
			addrs = append(addrs, ppa.Addr{Ch: ch, PU: pu, Plane: pl, Block: blk, Page: page, Sector: s})
			if fill != 0 {
				data = append(data, bytes.Repeat([]byte{fill}, g.SectorSize))
			} else {
				data = append(data, nil)
			}
		}
	}
	return d.Do(p, &Vector{Op: OpWrite, Addrs: addrs, Data: data})
}

func TestWriteReadRoundTrip(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		if c := writeUnit(p, dev, 0, 0, 0, 0, 0x5a); c.Failed() {
			t.Fatalf("write failed: %v", c.FirstErr())
		}
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 0, PU: 0, Plane: 2, Block: 0, Page: 0, Sector: 1}}})
		if c.Failed() {
			t.Fatalf("read failed: %v", c.FirstErr())
		}
		want := bytes.Repeat([]byte{0x5a}, dev.Geometry().SectorSize)
		if !bytes.Equal(c.Data[0], want) {
			t.Fatal("payload mismatch")
		}
	})
}

func TestPartialPageWriteRejected(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		c := dev.Do(p, &Vector{Op: OpWrite, Addrs: []ppa.Addr{{Sector: 0}}, Data: [][]byte{nil}})
		if !c.Failed() || !errors.Is(c.FirstErr(), ErrPartialPage) {
			t.Fatalf("partial page write: err = %v, want ErrPartialPage", c.FirstErr())
		}
	})
}

func TestVectorTooLong(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		addrs := make([]ppa.Addr, 65)
		for i := range addrs {
			addrs[i] = ppa.Addr{Page: 0, Sector: i % 4}
		}
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: addrs})
		if !errors.Is(c.FirstErr(), ErrTooManyAddrs) {
			t.Fatalf("err = %v, want ErrTooManyAddrs", c.FirstErr())
		}
	})
}

func TestInvalidAddressRejected(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 99}}})
		if !errors.Is(c.FirstErr(), ErrInvalidAddr) {
			t.Fatalf("err = %v, want ErrInvalidAddr", c.FirstErr())
		}
	})
}

func TestPerAddressCompletionStatus(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		writeUnit(p, dev, 0, 0, 0, 0, 0x11)
		// Read one written sector and one unwritten sector: exactly one
		// status bit must be set (paper §3.3).
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{
			{Ch: 0, PU: 0, Plane: 0, Block: 0, Page: 0, Sector: 0},
			{Ch: 0, PU: 0, Plane: 0, Block: 1, Page: 0, Sector: 0},
		}})
		if c.Status != 0b10 {
			t.Fatalf("status = %b, want 10", c.Status)
		}
		if c.Errs[0] != nil || c.Errs[1] == nil {
			t.Fatalf("errs = %v", c.Errs)
		}
	})
}

func TestReadLatency4K(t *testing.T) {
	// A cold 4K read costs flash read + 4K transfer + overhead: with the
	// default timing ~65+14.6+6 ≈ 86 µs; a cached sector on the same flash
	// page skips the flash read (paper: "the controller caches the flash
	// page internally").
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		writeUnit(p, dev, 0, 0, 0, 0, 0)
		start := env.Now()
		dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 0, PU: 0, Plane: 0, Block: 0, Page: 0, Sector: 0}}})
		cold := env.Now() - start

		start = env.Now()
		dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 0, PU: 0, Plane: 0, Block: 0, Page: 0, Sector: 1}}})
		warm := env.Now() - start

		if cold < 80*time.Microsecond || cold > 95*time.Microsecond {
			t.Fatalf("cold 4K read = %v, want ~86µs", cold)
		}
		if warm > 25*time.Microsecond {
			t.Fatalf("warm 4K read = %v, want ~21µs", warm)
		}
		if dev.Stats.CacheHits != 1 {
			t.Fatalf("cache hits = %d, want 1", dev.Stats.CacheHits)
		}
	})
}

func TestWriteLatencyUnit(t *testing.T) {
	// A 64KB quad-plane unit: transfer 64KB at 280MB/s (~229µs) + program
	// 1.1ms + overhead.
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		start := env.Now()
		writeUnit(p, dev, 0, 0, 0, 0, 0)
		d := env.Now() - start
		if d < 1300*time.Microsecond || d > 1400*time.Microsecond {
			t.Fatalf("unit write = %v, want ~1.33ms", d)
		}
	})
}

func TestPUSerializesReadBehindWrite(t *testing.T) {
	// A read to a PU busy programming waits for the program: the
	// fundamental latency spike the paper addresses.
	env, dev := newTestDevice(t, testConfig())
	var readLat time.Duration
	env.Go("writer", func(p *sim.Proc) {
		writeUnit(p, dev, 0, 0, 0, 0, 0)
	})
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(300 * time.Microsecond) // arrive mid-program
		start := env.Now()
		dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 0, PU: 0, Plane: 0, Block: 1, Page: 0, Sector: 0}}})
		readLat = env.Now() - start
	})
	env.Run()
	if readLat < 900*time.Microsecond {
		t.Fatalf("read behind write latency = %v, want ~1ms+", readLat)
	}
}

func TestSeparatePUsDoNotInterfere(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	var readLat time.Duration
	env.Go("writer", func(p *sim.Proc) {
		writeUnit(p, dev, 0, 0, 0, 0, 0)
	})
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(300 * time.Microsecond)
		start := env.Now()
		// Different channel entirely: no PU or channel contention.
		dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 1, PU: 0, Plane: 0, Block: 1, Page: 0, Sector: 0}}})
		readLat = env.Now() - start
	})
	env.Run()
	// Unwritten read: still charges flash+overhead but no queueing.
	if readLat > 100*time.Microsecond {
		t.Fatalf("isolated read latency = %v, want < 100µs", readLat)
	}
}

func TestChannelBandwidthShared(t *testing.T) {
	// Two writes to different PUs on the same channel serialize their
	// transfers; on different channels they overlap.
	elapsed := func(samePU bool) time.Duration {
		env, dev := newTestDevice(t, testConfig())
		done := 0
		var end time.Duration
		for i := 0; i < 2; i++ {
			ch := 0
			if !samePU && i == 1 {
				ch = 1
			}
			pu := i % 2 // different PUs either way
			env.Go("w", func(p *sim.Proc) {
				writeUnit(p, dev, ch, pu, 0, 0, 0)
				done++
				end = env.Now()
			})
		}
		env.Run()
		if done != 2 {
			panic("writes did not finish")
		}
		return end
	}
	same := elapsed(true)
	diff := elapsed(false)
	if same <= diff {
		t.Fatalf("same-channel writes (%v) should be slower than cross-channel (%v)", same, diff)
	}
	if same-diff < 150*time.Microsecond {
		t.Fatalf("channel serialization too small: %v vs %v", same, diff)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		writeUnit(p, dev, 0, 0, 0, 0, 0x77)
		g := dev.Geometry()
		addrs := make([]ppa.Addr, g.PlanesPerPU)
		for pl := range addrs {
			addrs[pl] = ppa.Addr{Ch: 0, PU: 0, Plane: pl, Block: 0}
		}
		start := env.Now()
		c := dev.Do(p, &Vector{Op: OpErase, Addrs: addrs})
		if c.Failed() {
			t.Fatalf("erase failed: %v", c.FirstErr())
		}
		if d := env.Now() - start; d < 3*time.Millisecond {
			t.Fatalf("erase took %v, want >= 3ms", d)
		}
		rc := dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 0, PU: 0, Plane: 0, Block: 0, Page: 0, Sector: 0}}})
		if !errors.Is(rc.FirstErr(), nand.ErrUnwritten) {
			t.Fatalf("read after erase: err = %v, want ErrUnwritten", rc.FirstErr())
		}
	})
}

func TestMultiPlaneProgramCountsOnce(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		writeUnit(p, dev, 0, 0, 0, 0, 0)
	})
	if dev.Stats.FlashPrograms != 1 {
		t.Fatalf("flash programs = %d, want 1 (multi-plane merge)", dev.Stats.FlashPrograms)
	}
}

func TestOOBRoundTrip(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		g := dev.Geometry()
		var addrs []ppa.Addr
		var data, oob [][]byte
		for pl := 0; pl < g.PlanesPerPU; pl++ {
			for s := 0; s < g.SectorsPerPage; s++ {
				addrs = append(addrs, ppa.Addr{Plane: pl, Page: 0, Sector: s})
				data = append(data, nil)
				oob = append(oob, []byte{byte(pl), byte(s), 0xee})
			}
		}
		if c := dev.Do(p, &Vector{Op: OpWrite, Addrs: addrs, Data: data, OOB: oob}); c.Failed() {
			t.Fatalf("write: %v", c.FirstErr())
		}
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Plane: 3, Page: 0, Sector: 2}}})
		if c.Failed() {
			t.Fatalf("read: %v", c.FirstErr())
		}
		if len(c.OOB[0]) < 3 || c.OOB[0][0] != 3 || c.OOB[0][1] != 2 || c.OOB[0][2] != 0xee {
			t.Fatalf("oob = %v", c.OOB[0])
		}
	})
}

func TestOOBTooLarge(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		big := make([]byte, dev.SectorOOBSize()+1)
		c := dev.Do(p, &Vector{
			Op:    OpWrite,
			Addrs: []ppa.Addr{{Sector: 0}},
			Data:  [][]byte{nil},
			OOB:   [][]byte{big},
		})
		if !errors.Is(c.FirstErr(), ErrOOBSize) {
			t.Fatalf("err = %v, want ErrOOBSize", c.FirstErr())
		}
	})
}

func TestIdentify(t *testing.T) {
	_, dev := newTestDevice(t, testConfig())
	id := dev.Identify()
	if id.MaxVectorLen != 64 {
		t.Fatalf("MaxVectorLen = %d", id.MaxVectorLen)
	}
	if id.Geometry.Channels != 16 || id.SectorOOB != 16 {
		t.Fatalf("identify geometry wrong: %+v", id.Geometry)
	}
}

func TestCrashDropsCaches(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		writeUnit(p, dev, 0, 0, 0, 0, 0x42)
		dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Page: 0, Sector: 0}}})
		dev.Crash()
		start := env.Now()
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Page: 0, Sector: 1}}})
		if c.Failed() {
			t.Fatalf("media lost on crash: %v", c.FirstErr())
		}
		if env.Now()-start < 60*time.Microsecond {
			t.Fatal("read after crash was served from a cache that should be gone")
		}
	})
}

func TestMaxAggregateReadBandwidth(t *testing.T) {
	// Saturating all 16 channels with large reads should approach
	// 16 × 280 MB/s = 4.48 GB/s (paper Table 1: max read 4.5 GB/s).
	cfg := testConfig()
	env, dev := newTestDevice(t, cfg)
	g := dev.Geometry()
	// Prepare one unit per PU.
	env.Go("prep", func(p *sim.Proc) {
		for ch := 0; ch < g.Channels; ch++ {
			for pu := 0; pu < g.PUsPerChannel; pu++ {
				writeUnit(p, dev, ch, pu, 0, 0, 0)
			}
		}
	})
	env.Run()
	startT := env.Now()
	bytesRead := 0
	for ch := 0; ch < g.Channels; ch++ {
		for pu := 0; pu < g.PUsPerChannel; pu++ {
			ch, pu := ch, pu
			env.Go("r", func(p *sim.Proc) {
				for rep := 0; rep < 4; rep++ {
					var addrs []ppa.Addr
					for pl := 0; pl < g.PlanesPerPU; pl++ {
						for s := 0; s < g.SectorsPerPage; s++ {
							addrs = append(addrs, ppa.Addr{Ch: ch, PU: pu, Plane: pl, Block: 0, Page: 0, Sector: s})
						}
					}
					dev.Do(p, &Vector{Op: OpRead, Addrs: addrs})
					bytesRead += len(addrs) * g.SectorSize
				}
			})
		}
	}
	env.Run()
	dur := env.Now() - startT
	gbps := float64(bytesRead) / dur.Seconds() / 1e9
	if gbps < 3.0 || gbps > 5.0 {
		t.Fatalf("aggregate read bandwidth = %.2f GB/s, want ~4.5", gbps)
	}
}

func TestProgramSuspendCutsReadLatency(t *testing.T) {
	// Paper §3.3: erase/program suspend lets reads preempt an active
	// program, trading longer writes for much lower read latency.
	run := func(suspend bool) (read, write time.Duration) {
		cfg := testConfig()
		if suspend {
			cfg.Timing.SuspendSlice = 100 * time.Microsecond
			cfg.Timing.SuspendPenalty = 50 * time.Microsecond
		}
		env, dev := newTestDevice(t, cfg)
		var readLat, writeLat time.Duration
		env.Go("writer", func(p *sim.Proc) {
			start := env.Now()
			writeUnit(p, dev, 0, 0, 0, 0, 0)
			writeLat = env.Now() - start
		})
		env.Go("reader", func(p *sim.Proc) {
			p.Sleep(300 * time.Microsecond) // arrive mid-program
			start := env.Now()
			dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 0, PU: 0, Plane: 0, Block: 1, Page: 0, Sector: 0}}})
			readLat = env.Now() - start
		})
		env.Run()
		return readLat, writeLat
	}
	rOff, wOff := run(false)
	rOn, wOn := run(true)
	if rOn >= rOff/2 {
		t.Fatalf("suspend did not cut read latency: %v vs %v", rOn, rOff)
	}
	if wOn <= wOff {
		t.Fatalf("suspend should lengthen the write: %v vs %v", wOn, wOff)
	}
}

func TestSuspendCountsStat(t *testing.T) {
	cfg := testConfig()
	cfg.Timing.SuspendSlice = 100 * time.Microsecond
	env, dev := newTestDevice(t, cfg)
	env.Go("writer", func(p *sim.Proc) { writeUnit(p, dev, 0, 0, 0, 0, 0) })
	env.Go("reader", func(p *sim.Proc) {
		p.Sleep(250 * time.Microsecond)
		dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 0, PU: 0, Plane: 0, Block: 1, Page: 0, Sector: 0}}})
	})
	env.Run()
	if dev.Stats.Suspensions == 0 {
		t.Fatal("no suspensions recorded")
	}
}

// TestSubmitSpawnsNoGoroutines guards the continuation datapath: vector
// reads, vectored writes and erases must execute without
// starting a single simulation process — every PU sub-command is a pooled
// state machine driven by the scheduler.
func TestSubmitSpawnsNoGoroutines(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		base := env.Spawns()
		for pu := 0; pu < 2; pu++ {
			for page := 0; page < 8; page++ {
				if c := writeUnit(p, dev, pu, pu, 1, page, byte(page+1)); c.Failed() {
					t.Fatalf("write pu %d page %d failed: %v", pu, page, c.FirstErr())
				}
			}
		}
		var addrs []ppa.Addr
		for i := 0; i < 16; i++ {
			addrs = append(addrs, ppa.Addr{Ch: i % 2, PU: i % 2, Plane: i % 4, Block: 1, Page: i / 2, Sector: i % 4})
		}
		if c := dev.Do(p, &Vector{Op: OpRead, Addrs: addrs}); c.Failed() {
			t.Fatalf("read failed: %v", c.FirstErr())
		}
		if c := dev.Do(p, &Vector{Op: OpErase, Addrs: []ppa.Addr{{Block: 1}}}); c.Failed() {
			t.Fatalf("erase failed: %v", c.FirstErr())
		}
		if got := env.Spawns(); got != base {
			t.Fatalf("device datapath spawned %d goroutine(s); must spawn none", got-base)
		}
	})
	// The pools are warm: a one-sector read, submit to completion, now
	// allocates nothing — in the device or in the event engine under it.
	read := &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 1, PU: 1, Plane: 3, Block: 1, Page: 5, Sector: 2}}}
	reads := 0
	done := func(c *Completion) {
		if c.Failed() || c.Data[0][0] != 6 {
			t.Errorf("steady-state read: err %v, data %v", c.FirstErr(), c.Data[0][:1])
		}
		reads++
		dev.Recycle(c)
	}
	allocs := testing.AllocsPerRun(200, func() {
		dev.Submit(read, done)
		env.Run()
	})
	if allocs != 0 || reads != 201 {
		t.Fatalf("steady-state one-sector read: %.2f allocs per command over %d reads, want 0 over 201", allocs, reads)
	}
}

// A pooled completion carries nothing from the command before it: after a
// 64-address read (one address failing), a one-address read sees a single
// clean slot, the array behind it holds no stale page or error, and switching
// between writes and reads keeps the arrays instead of reallocating them.
func TestCompletionPoolReuse(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		for page := 0; page < 4; page++ {
			writeUnit(p, dev, 0, 0, 1, page, 0x40)
		}
		var wide []ppa.Addr
		for i := 0; i < MaxVectorLen; i++ {
			wide = append(wide, ppa.Addr{Plane: i % 4, Block: 1, Page: i / 16, Sector: i / 4 % 4})
		}
		wide[63].Page = 9 // never programmed: this address fails
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: wide})
		if c.Status != 1<<63 || c.Data[0] == nil || c.Errs[63] == nil {
			t.Fatalf("wide read: status %#x, data[0] nil=%v, errs[63]=%v", c.Status, c.Data[0] == nil, c.Errs[63])
		}
		dev.Recycle(c)
		one := dev.Do(p, &Vector{Op: OpRead, Addrs: wide[:1]})
		if one != c {
			t.Fatal("the pool did not hand the recycled completion back")
		}
		if len(one.Data) != 1 || len(one.OOB) != 1 || len(one.Errs) != 1 || one.Failed() {
			t.Fatalf("one-address read: %d data, %d oob, %d errs, status %#x", len(one.Data), len(one.OOB), len(one.Errs), one.Status)
		}
		for i := 1; i < MaxVectorLen; i++ {
			if one.Data[:MaxVectorLen][i] != nil || one.OOB[:MaxVectorLen][i] != nil || one.Errs[:MaxVectorLen][i] != nil {
				t.Fatalf("slot %d past the one-address read still holds the wide read's result", i)
			}
		}
		dev.Recycle(one)
	})
	// Write a page, read it back, 60 times over: one completion alternates
	// between the two shapes and its arrays survive every switch.
	unit := &Vector{Op: OpWrite}
	for i := 0; i < 16; i++ {
		unit.Addrs = append(unit.Addrs, ppa.Addr{Plane: i / 4, Block: 2, Sector: i % 4})
	}
	read := &Vector{Op: OpRead, Addrs: unit.Addrs}
	page, failed := 0, 0
	done := func(c *Completion) {
		if c.Failed() {
			failed++
		}
		dev.Recycle(c)
	}
	allocs := testing.AllocsPerRun(60, func() {
		for i := range unit.Addrs {
			unit.Addrs[i].Page = page
		}
		page++
		dev.Submit(unit, done)
		env.Run()
		dev.Submit(read, done)
		env.Run()
	})
	if allocs != 0 || failed != 0 {
		t.Fatalf("write then read on one pooled completion: %.2f allocs per pair, %d failed commands; want 0 and 0", allocs, failed)
	}
}

func TestDeviceFailDeathHook(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		fired := 0
		dev.OnDeath(func() { fired++ })
		if dev.Dead() {
			t.Fatal("fresh device reports dead")
		}
		if c := writeUnit(p, dev, 0, 0, 0, 0, 0x77); c.Failed() {
			t.Fatalf("write before death failed: %v", c.FirstErr())
		}
		dev.Fail()
		if !dev.Dead() {
			t.Fatal("Fail did not mark device dead")
		}
		if fired != 1 {
			t.Fatalf("death hook fired %d times, want 1", fired)
		}
		dev.Fail() // idempotent: hooks run once
		if fired != 1 {
			t.Fatalf("second Fail re-fired hooks: %d", fired)
		}
		late := 0
		dev.OnDeath(func() { late++ })
		if late != 1 {
			t.Fatal("hook registered after death must fire immediately")
		}
		// All I/O on a dead device fails with ErrDeviceDead, per address.
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 0, PU: 0, Plane: 0, Block: 0, Page: 0, Sector: 0}}})
		if !c.Failed() || !errors.Is(c.FirstErr(), ErrDeviceDead) {
			t.Fatalf("read on dead device: failed=%v err=%v, want ErrDeviceDead", c.Failed(), c.FirstErr())
		}
		if c = writeUnit(p, dev, 0, 0, 1, 0, 0x11); !c.Failed() || !errors.Is(c.FirstErr(), ErrDeviceDead) {
			t.Fatalf("write on dead device: failed=%v err=%v, want ErrDeviceDead", c.Failed(), c.FirstErr())
		}
		// Malformed vectors still report the validation error, dead or not.
		c = dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 99}}})
		if errors.Is(c.FirstErr(), ErrDeviceDead) {
			t.Fatalf("invalid address reported ErrDeviceDead: %v", c.FirstErr())
		}
	})
}

func TestReadRetryLatencyAndRelocate(t *testing.T) {
	// Retention-driven BER: with coeff 1e-3/s and ECC floor 1e-3, a page
	// aged ~2.5s needs 2 retry tiers, aged ~4.5s needs 4 (deep → relocate
	// advised at tiers > ReadRetryTiers/2), and aged ~5.5s exceeds the 4
	// tiers and fails. Mid-band ages keep ceil() stable against the few
	// ms of write/read latency. Each tier charges Timing.ReadRetry of array time.
	cfg := testConfig()
	cfg.PageCache = false // cache hits would bypass the die read path
	cfg.Media.BERRetentionCoeff = 1e-3
	cfg.Media.RetentionAccel = 1
	cfg.Media.ECCBER = 1e-3
	cfg.Media.ReadRetryStep = 1e-3
	cfg.Media.ReadRetryTiers = 4
	env, dev := newTestDevice(t, cfg)
	run(env, func(p *sim.Proc) {
		writeUnit(p, dev, 0, 0, 0, 0, 0x7c)
		one := []ppa.Addr{{Ch: 0, PU: 0, Plane: 0, Block: 0, Page: 0, Sector: 0}}

		start := env.Now()
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: one})
		if c.Failed() || c.Retries != 0 || c.Relocate != 0 {
			t.Fatalf("fresh read: err=%v retries=%d reloc=%b", c.FirstErr(), c.Retries, c.Relocate)
		}
		fresh := env.Now() - start

		p.Sleep(2500 * time.Millisecond)
		start = env.Now()
		c = dev.Do(p, &Vector{Op: OpRead, Addrs: one})
		if c.Failed() {
			t.Fatalf("aged read failed: %v", c.FirstErr())
		}
		if c.Retries != 2 || c.Relocate != 0 {
			t.Fatalf("2.5s read: retries=%d reloc=%b, want 2 tiers, no relocate", c.Retries, c.Relocate)
		}
		aged := env.Now() - start
		extra := aged - fresh
		if want := 2 * dev.cfg.Timing.ReadRetry; extra != want {
			t.Fatalf("retry latency: aged-fresh = %v, want %v", extra, want)
		}

		p.Sleep(2 * time.Second) // age ~4.5s → 4 tiers, deep retry
		c = dev.Do(p, &Vector{Op: OpRead, Addrs: one})
		if c.Failed() || c.Retries != 4 {
			t.Fatalf("4.5s read: err=%v retries=%d, want 4 tiers", c.FirstErr(), c.Retries)
		}
		if c.Relocate != 1 {
			t.Fatalf("deep retry must advise relocation: reloc=%b", c.Relocate)
		}

		p.Sleep(time.Second) // age ~5.5s → beyond all tiers
		c = dev.Do(p, &Vector{Op: OpRead, Addrs: one})
		if !c.Failed() || !errors.Is(c.FirstErr(), nand.ErrReadFail) {
			t.Fatalf("5.5s read: err=%v, want ErrReadFail", c.FirstErr())
		}

		if dev.Stats.ReadRetries != 2+4+4 { // failed read still burned all tiers
			t.Fatalf("Stats.ReadRetries = %d, want 10", dev.Stats.ReadRetries)
		}
		if dev.Stats.RelocateAdvised != 1 {
			t.Fatalf("Stats.RelocateAdvised = %d, want 1", dev.Stats.RelocateAdvised)
		}
	})
}

// A partly-filled page lands on a buffer the die recycled from an erased
// block: the sectors and OOB slots the vector left nil must read back as
// zeros, never as the previous owner's bytes.
func TestPartialPayloadOnRecycledPageReadsZeros(t *testing.T) {
	env, dev := newTestDevice(t, testConfig())
	run(env, func(p *sim.Proc) {
		g := dev.Geometry()
		per := dev.SectorOOBSize()
		var unit []ppa.Addr
		var dirty, dirtyOOB [][]byte
		for pl := 0; pl < g.PlanesPerPU; pl++ {
			for s := 0; s < g.SectorsPerPage; s++ {
				unit = append(unit, ppa.Addr{Plane: pl, Sector: s})
				dirty = append(dirty, bytes.Repeat([]byte{0xaa}, g.SectorSize))
				dirtyOOB = append(dirtyOOB, bytes.Repeat([]byte{0xaa}, per))
			}
		}
		if c := dev.Do(p, &Vector{Op: OpWrite, Addrs: unit, Data: dirty, OOB: dirtyOOB}); c.Failed() {
			t.Fatalf("write: %v", c.FirstErr())
		}
		if got, want := dev.PayloadBytes(), int64(g.PlanesPerPU*g.PageSize()); got != want {
			t.Fatalf("PayloadBytes = %d after one unit, want %d", got, want)
		}
		erase := make([]ppa.Addr, g.PlanesPerPU)
		for pl := range erase {
			erase[pl] = ppa.Addr{Plane: pl}
		}
		if c := dev.Do(p, &Vector{Op: OpErase, Addrs: erase}); c.Failed() {
			t.Fatalf("erase: %v", c.FirstErr())
		}
		// Same unit again; only plane 0 sector 1 carries bytes (a short
		// payload and a short OOB), every other entry is nil.
		data := make([][]byte, len(unit))
		oob := make([][]byte, len(unit))
		data[1], oob[1] = []byte("short"), []byte{0x5c}
		if c := dev.Do(p, &Vector{Op: OpWrite, Addrs: unit, Data: data, OOB: oob}); c.Failed() {
			t.Fatalf("rewrite: %v", c.FirstErr())
		}
		if got, want := dev.PayloadBytes(), int64(g.PlanesPerPU*g.PageSize()); got != want {
			t.Fatalf("PayloadBytes = %d after rewrite, want %d (one page held, the rest free)", got, want)
		}
		c := dev.Do(p, &Vector{Op: OpRead, Addrs: unit[:g.SectorsPerPage]})
		if c.Failed() {
			t.Fatalf("read: %v", c.FirstErr())
		}
		for s := 0; s < g.SectorsPerPage; s++ {
			want, wantOOB := make([]byte, g.SectorSize), make([]byte, per)
			if s == 1 {
				copy(want, "short")
				wantOOB[0] = 0x5c
			}
			if !bytes.Equal(c.Data[s], want) {
				t.Fatalf("sector %d: stale or wrong payload, starts % x", s, c.Data[s][:8])
			}
			if !bytes.Equal(c.OOB[s], wantOOB) {
				t.Fatalf("sector %d: oob = % x, want % x", s, c.OOB[s], wantOOB)
			}
		}
		// Planes that got no bytes at all store none.
		c = dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Plane: 1, Sector: 0}}})
		if c.Failed() || c.Data[0] != nil || c.OOB[0] != nil {
			t.Fatalf("nil page read back data=%v oob=%v err=%v", c.Data[0] != nil, c.OOB[0], c.FirstErr())
		}
	})
}
