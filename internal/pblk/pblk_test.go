package pblk

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// testGeometry is a small device: 2 ch × 2 PU × 2 planes, 40 blocks/plane,
// 32 pages/block, 16 KB pages → ~167 MB raw.
func testGeometry() ppa.Geometry {
	return ppa.Geometry{
		Channels: 2, PUsPerChannel: 2, PlanesPerPU: 2,
		BlocksPerPlane: 40, PagesPerBlock: 32,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	}
}

func testDeviceConfig() ocssd.Config {
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	return ocssd.Config{
		Geometry:  testGeometry(),
		Timing:    ocssd.DefaultTiming(),
		Media:     m,
		PageCache: true,
		Seed:      7,
	}
}

type env struct {
	t    *testing.T
	sim  *sim.Env
	dev  *ocssd.Device
	lnvm *lightnvm.Device
}

func newEnv(t *testing.T, devCfg ocssd.Config) *env {
	t.Helper()
	s := sim.NewEnv(11)
	dev, err := ocssd.New(s, devCfg)
	if err != nil {
		t.Fatal(err)
	}
	return &env{t: t, sim: s, dev: dev, lnvm: lightnvm.Register("nvme0n1", dev)}
}

// run executes fn as a sim process and drains the simulation.
func (e *env) run(fn func(p *sim.Proc)) {
	e.sim.Go("test", fn)
	e.sim.Run()
}

func (e *env) newPblk(p *sim.Proc, cfg Config) *Pblk {
	k, err := New(p, e.lnvm, "pblk0", cfg)
	if err != nil {
		e.t.Fatal(err)
	}
	return k
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%13)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		data := fill(16384, 3)
		if err := k.Write(p, 0, data, int64(len(data))); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := k.Read(p, 0, got, int64(len(got))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read-back mismatch (buffered path)")
		}
		// Force to media and read again.
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		got2 := make([]byte, len(data))
		if err := k.Read(p, 0, got2, int64(len(got2))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got2, data) {
			t.Fatal("read-back mismatch (media path)")
		}
	})
}

func TestUnwrittenReadsZeros(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		buf := fill(8192, 9)
		if err := k.Read(p, 4096, buf[:8192], 8192); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("unmapped read returned non-zero data")
			}
		}
	})
}

func TestOverwriteReturnsLatest(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		for gen := byte(1); gen <= 5; gen++ {
			if err := k.Write(p, 8192, fill(4096, gen), 4096); err != nil {
				t.Fatal(err)
			}
			if gen%2 == 0 {
				k.Flush(p)
			}
		}
		got := make([]byte, 4096)
		if err := k.Read(p, 8192, got, 4096); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fill(4096, 5)) {
			t.Fatal("overwrite did not return latest generation")
		}
	})
}

func TestFlushDurability(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		// One sector, then flush: padding must fill the flash page.
		if err := k.Write(p, 0, fill(4096, 1), 4096); err != nil {
			t.Fatal(err)
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		if k.Stats.PaddedSectors == 0 {
			t.Fatal("flush of a partial page did not pad")
		}
		if k.Stats.Flushes != 1 {
			t.Fatalf("flushes = %d", k.Stats.Flushes)
		}
		k.Stop(p)
	})
}

// A flush queued behind another flush forces out its own data. Writer A
// writes a sector and flushes; while A's unit programs, writer B does the
// same on another lane. B's flush must cost one unit's transfer plus
// program, not wait for A's unit to finish before its own unit starts.
func TestSecondFlushForcesItsOwnData(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	var second time.Duration
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		// Open a group on every lane, so no flush below waits for an open
		// mark's program, and let the device go idle.
		warm := int64(k.nPUs * k.unitSectors * k.SectorSize())
		if err := k.Write(p, 2<<20, nil, warm); err != nil {
			t.Fatal(err)
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(10 * time.Millisecond)
		b := p.Env().Go("writer-b", func(p *sim.Proc) {
			p.Sleep(200 * time.Microsecond) // A's unit is past the channel, programming
			if err := k.Write(p, 1<<20, fill(4096, 2), 4096); err != nil {
				t.Fatal(err)
			}
			start := e.sim.Now()
			if err := k.Flush(p); err != nil {
				t.Fatal(err)
			}
			second = e.sim.Now() - start
		})
		if err := k.Write(p, 0, fill(4096, 1), 4096); err != nil {
			t.Fatal(err)
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		p.Wait(b.Done())
	})
	tm, geo := e.dev.Timing(), testGeometry()
	unitBytes := geo.PlanesPerPU * geo.SectorsPerPage * geo.SectorSize
	xfer := time.Duration(float64(unitBytes) / (tm.ChannelMBps * 1e6) * float64(time.Second))
	if bound := tm.CmdOverhead + xfer + tm.PageProgram + 10*time.Microsecond; second > bound {
		t.Fatalf("second flush took %v, want at most one unit's transfer plus program (%v)", second, bound)
	}
}

func TestCacheReadsServedFromBuffer(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		k.Write(p, 0, fill(4096, 1), 4096)
		start := e.sim.Now()
		got := make([]byte, 4096)
		if err := k.Read(p, 0, got, 4096); err != nil {
			t.Fatal(err)
		}
		if d := e.sim.Now() - start; d > 10*time.Microsecond {
			t.Fatalf("buffered read took %v, want host-only cost", d)
		}
		if k.Stats.CacheReads != 1 {
			t.Fatalf("cache reads = %d, want 1", k.Stats.CacheReads)
		}
	})
}

func TestTrim(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		k.Write(p, 0, fill(4096, 7), 4096)
		k.Flush(p)
		if err := k.Trim(p, 0, 4096); err != nil {
			t.Fatal(err)
		}
		got := fill(4096, 9)
		if err := k.Read(p, 0, got, 4096); err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != 0 {
				t.Fatal("trimmed sector not zeroed")
			}
		}
	})
}

func TestLargeSequentialWriteAndVerify(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		const chunk = 64 * 1024
		n := int(k.Capacity() / 4 / chunk) // quarter of the device
		for i := 0; i < n; i++ {
			if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(i)), chunk); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		k.Flush(p)
		got := make([]byte, chunk)
		for i := 0; i < n; i++ {
			if err := k.Read(p, int64(i)*chunk, got, chunk); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if !bytes.Equal(got, fill(chunk, byte(i))) {
				t.Fatalf("chunk %d corrupted", i)
			}
		}
	})
}

func TestGCUnderCapacityPressure(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
		defer k.Stop(p)
		// Overwrite a working set repeatedly: total volume ≈ 4× media so
		// GC must recycle blocks.
		const chunk = 64 * 1024
		span := k.Capacity() * 3 / 4
		writes := int(int64(2) * k.Device().Geometry().TotalBytes() / chunk)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < writes; i++ {
			off := (rng.Int63n(span / chunk)) * chunk
			if err := k.Write(p, off, nil, chunk); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		k.Flush(p)
		if k.Stats.GCBlocksRecycled == 0 {
			t.Fatal("no blocks recycled despite writing 4x device capacity")
		}
		if k.FreeGroups() == 0 {
			t.Fatal("device wedged: no free groups after GC")
		}
	})
}

func TestGCPreservesData(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
		defer k.Stop(p)
		// Write a verifiable cold region, then churn a hot region until GC
		// has moved blocks; the cold data must survive relocation.
		const chunk = 64 * 1024
		coldChunks := 8
		for i := 0; i < coldChunks; i++ {
			if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(0x40+i)), chunk); err != nil {
				t.Fatal(err)
			}
		}
		k.Flush(p)
		hotBase := int64(coldChunks) * chunk
		hotSpan := k.Capacity() - hotBase - chunk
		rng := rand.New(rand.NewSource(9))
		vol := int64(0)
		for vol < 2*k.Device().Geometry().TotalBytes() {
			off := hotBase + rng.Int63n(hotSpan/chunk)*chunk
			if err := k.Write(p, off, nil, chunk); err != nil {
				t.Fatal(err)
			}
			vol += chunk
		}
		k.Flush(p)
		if k.Stats.GCMovedSectors == 0 {
			t.Fatal("expected GC to relocate valid sectors")
		}
		got := make([]byte, chunk)
		for i := 0; i < coldChunks; i++ {
			if err := k.Read(p, int64(i)*chunk, got, chunk); err != nil {
				t.Fatalf("cold read %d: %v", i, err)
			}
			if !bytes.Equal(got, fill(chunk, byte(0x40+i))) {
				t.Fatalf("cold chunk %d corrupted by GC", i)
			}
		}
	})
}

func TestCrashRecoveryScan(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		const chunk = 32 * 1024
		n := 24
		for i := 0; i < n; i++ {
			if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(i+1)), chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		k.Crash() // power loss: no snapshot, no graceful close

		k2 := e.newPblk(p, Config{ActivePUs: 4})
		defer k2.Stop(p)
		if k2.Stats.Recoveries != 1 {
			t.Fatalf("recoveries = %d, want 1 (scan path)", k2.Stats.Recoveries)
		}
		if k2.Stats.SnapshotLoads != 0 {
			t.Fatal("crash recovery must not find a snapshot")
		}
		got := make([]byte, chunk)
		for i := 0; i < n; i++ {
			if err := k2.Read(p, int64(i)*chunk, got, chunk); err != nil {
				t.Fatalf("read %d after recovery: %v", i, err)
			}
			if !bytes.Equal(got, fill(chunk, byte(i+1))) {
				t.Fatalf("chunk %d lost after crash recovery", i)
			}
		}
	})
}

func TestCrashRecoveryAfterOverwrites(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		// Write three generations of the same LBAs; recovery must return
		// the newest (sequence-ordered replay).
		for gen := byte(1); gen <= 3; gen++ {
			for i := 0; i < 16; i++ {
				if err := k.Write(p, int64(i)*8192, fill(8192, gen*10+byte(i)), 8192); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.Flush(p); err != nil {
				t.Fatal(err)
			}
		}
		k.Crash()

		k2 := e.newPblk(p, Config{ActivePUs: 4})
		defer k2.Stop(p)
		got := make([]byte, 8192)
		for i := 0; i < 16; i++ {
			if err := k2.Read(p, int64(i)*8192, got, 8192); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fill(8192, 30+byte(i))) {
				t.Fatalf("lba group %d: stale generation after recovery", i)
			}
		}
	})
}

func TestGracefulShutdownSnapshot(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		const chunk = 32 * 1024
		for i := 0; i < 16; i++ {
			if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(i+1)), chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Shutdown(p); err != nil {
			t.Fatal(err)
		}

		k2 := e.newPblk(p, Config{ActivePUs: 4})
		if k2.Stats.SnapshotLoads != 1 {
			t.Fatalf("snapshot loads = %d, want 1", k2.Stats.SnapshotLoads)
		}
		if k2.Stats.Recoveries != 0 {
			t.Fatal("graceful restart should not scan")
		}
		got := make([]byte, chunk)
		for i := 0; i < 16; i++ {
			if err := k2.Read(p, int64(i)*chunk, got, chunk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fill(chunk, byte(i+1))) {
				t.Fatalf("chunk %d lost across graceful restart", i)
			}
		}
		// The snapshot must be single-use: crash now and recover by scan.
		k2.Crash()
		k3 := e.newPblk(p, Config{ActivePUs: 4})
		defer k3.Stop(p)
		if k3.Stats.SnapshotLoads != 0 {
			t.Fatal("stale snapshot replayed after crash")
		}
		for i := 0; i < 16; i++ {
			if err := k3.Read(p, int64(i)*chunk, got, chunk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, fill(chunk, byte(i+1))) {
				t.Fatalf("chunk %d lost after snapshot+crash", i)
			}
		}
	})
}

func TestWriteErrorRecovery(t *testing.T) {
	cfg := testDeviceConfig()
	cfg.Media.WriteFailProb = 0.02
	e := newEnv(t, cfg)
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.3})
		defer k.Stop(p)
		const chunk = 32 * 1024
		n := 64
		for i := 0; i < n; i++ {
			if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(i)), chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		if k.Stats.WriteErrors == 0 {
			t.Skip("no write failures injected at this seed")
		}
		got := make([]byte, chunk)
		for i := 0; i < n; i++ {
			if err := k.Read(p, int64(i)*chunk, got, chunk); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if !bytes.Equal(got, fill(chunk, byte(i))) {
				t.Fatalf("chunk %d corrupted despite write-error recovery", i)
			}
		}
	})
}

func TestSetActivePUs(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{})
		defer k.Stop(p)
		if k.ActivePUs() != 4 {
			t.Fatalf("default active PUs = %d, want all 4", k.ActivePUs())
		}
		k.Write(p, 0, fill(16384, 1), 16384)
		if err := k.SetActivePUs(p, 2); err != nil {
			t.Fatal(err)
		}
		if k.ActivePUs() != 2 {
			t.Fatal("SetActivePUs did not take effect")
		}
		k.Write(p, 65536, fill(16384, 2), 16384)
		k.Flush(p)
		got := make([]byte, 16384)
		if err := k.Read(p, 0, got, 16384); err != nil || !bytes.Equal(got, fill(16384, 1)) {
			t.Fatalf("data lost across retuning: %v", err)
		}
		if err := k.SetActivePUs(p, 3); err == nil {
			t.Fatal("non-divisor active PU count accepted")
		}
	})
}

// TestSetActivePUsChecksOverProvisioning: SetActivePUs refuses a lane
// count whose open groups the spare pool cannot cover, exactly as New does,
// and the refused call leaves the instance taking writes. Accepting one
// wedged random overwrites for good once free space ran out.
func TestSetActivePUsChecksOverProvisioning(t *testing.T) {
	devCfg := testDeviceConfig()
	devCfg.Geometry.Channels, devCfg.Geometry.PUsPerChannel, devCfg.Geometry.BlocksPerPlane = 4, 4, 24
	e := newEnv(t, devCfg)
	e.run(func(p *sim.Proc) {
		for _, n := range []int{4, 8, 16} {
			if _, err := New(p, e.lnvm, "pblk0", Config{ActivePUs: n, OverProvision: 0.04}); err == nil ||
				!strings.Contains(err.Error(), "over-provisioning") {
				t.Fatalf("New with %d active PUs: %v, want an over-provisioning error", n, err)
			}
		}
		k := e.newPblk(p, Config{ActivePUs: 1, OverProvision: 0.04})
		defer k.Stop(p)
		if err := k.SetActivePUs(p, 2); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{4, 8, 16} {
			if err := k.SetActivePUs(p, n); err == nil || !strings.Contains(err.Error(), "over-provisioning") {
				t.Errorf("SetActivePUs(%d): %v, want an over-provisioning error", n, err)
			}
		}
		if k.ActivePUs() != 2 {
			t.Fatalf("active PUs %d after refused retunes, want 2", k.ActivePUs())
		}
		data := fill(1<<20, 5)
		if err := k.Write(p, 0, data, int64(len(data))); err != nil {
			t.Fatal(err)
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(data))
		if err := k.Read(p, 0, got, int64(len(got))); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read-back after refused retunes: %v", err)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestColdHintRidesGCStream: a write hinted blockdev.HintCold lands in a
// GC-stream group and an unhinted one in a user-stream group; under
// SingleStream both land in user-stream groups. Both read back either way.
func TestColdHintRidesGCStream(t *testing.T) {
	for _, single := range []bool{false, true} {
		e := newEnv(t, testDeviceConfig())
		e.run(func(p *sim.Proc) {
			k := e.newPblk(p, Config{ActivePUs: 4, SingleStream: single})
			defer k.Stop(p)
			const n = 256 << 10
			hot, cold := fill(n, 1), fill(n, 2)
			if err := k.Do(p, blockdev.ReqWrite, 0, hot, n, blockdev.HintNone); err != nil {
				t.Fatal(err)
			}
			if err := k.Do(p, blockdev.ReqWrite, n, cold, n, blockdev.HintCold); err != nil {
				t.Fatal(err)
			}
			if err := k.Flush(p); err != nil {
				t.Fatal(err)
			}
			coldStream := uint8(streamGC)
			if single {
				coldStream = streamUser
			}
			sectors := int64(n / k.geo.SectorSize)
			for lba := int64(0); lba < 2*sectors; lba++ {
				want := uint8(streamUser)
				if lba >= sectors {
					want = coldStream
				}
				v := k.l2p[lba]
				if !isMedia(v) {
					t.Fatalf("single=%v: LBA %d not on media after flush", single, lba)
				}
				if g := k.groupOfEntry(v); g.stream != want {
					t.Fatalf("single=%v: LBA %d in %s-stream group %d, want %s", single, lba,
						streamName(int(g.stream)), g.id, streamName(int(want)))
				}
			}
			got := make([]byte, n)
			for i, want := range [][]byte{hot, cold} {
				if err := k.Read(p, int64(i*n), got, n); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("single=%v: read-back of range %d: %v", single, i, err)
				}
			}
		})
	}
}

func TestStripingUsesAllActivePUs(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{}) // all 4 PUs active
		defer k.Stop(p)
		// Write enough for one unit per PU.
		unitBytes := int64(k.unitSectors) * 4096
		k.Write(p, 0, nil, unitBytes*4)
		k.Flush(p)
		used := map[int]bool{}
		ss := int64(4096)
		for lba := int64(0); lba < unitBytes*4/ss; lba++ {
			v := k.l2p[lba]
			if isMedia(v) {
				used[k.fmtr.GlobalPU(k.mediaAddr(v))] = true
			}
		}
		if len(used) != 4 {
			t.Fatalf("striping touched %d PUs, want 4", len(used))
		}
	})
}

func TestStopRejectsFurtherIO(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		k.Write(p, 0, nil, 4096)
		if err := k.Stop(p); err != nil {
			t.Fatal(err)
		}
		if err := k.Write(p, 0, nil, 4096); err != ErrStopped {
			t.Fatalf("write after stop: err = %v, want ErrStopped", err)
		}
		if err := k.Read(p, 0, nil, 4096); err != ErrStopped {
			t.Fatalf("read after stop: err = %v, want ErrStopped", err)
		}
	})
}

// A full-device pblk holds every PU until it stops: a second instance,
// under its name or any other, cannot mount beside it, and one mounts as
// soon as Stop returns.
func TestLightNVMTargetLifecycle(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		for _, name := range []string{"pblk0", "pblk1"} {
			if _, err := New(p, e.lnvm, name, Config{ActivePUs: 4}); err == nil {
				t.Fatalf("second pblk %q mounted over a live one", name)
			}
		}
		if err := k.Write(p, 0, nil, 4096); err != nil {
			t.Fatal(err)
		}
		if err := k.Stop(p); err != nil {
			t.Fatal(err)
		}
		e.newPblk(p, Config{ActivePUs: 4}).Stop(p)
	})
}

func TestRandomWorkloadIntegrity(t *testing.T) {
	// Property-style: a random mix of writes, overwrites, flushes, and
	// trims must always read back the shadow copy.
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
		defer k.Stop(p)
		ss := int64(4096)
		lbas := k.Capacity() / ss
		shadow := make(map[int64]byte) // lba -> generation seed
		rng := rand.New(rand.NewSource(77))
		for op := 0; op < 3000; op++ {
			lba := rng.Int63n(lbas - 4)
			switch rng.Intn(10) {
			case 0:
				k.Flush(p)
			case 1:
				nSec := int64(rng.Intn(3) + 1)
				if err := k.Trim(p, lba*ss, nSec*ss); err != nil {
					t.Fatal(err)
				}
				for i := int64(0); i < nSec; i++ {
					delete(shadow, lba+i)
				}
			default:
				gen := byte(rng.Intn(250) + 1)
				nSec := int64(rng.Intn(4) + 1)
				buf := make([]byte, nSec*ss)
				for i := int64(0); i < nSec; i++ {
					copy(buf[i*ss:], fill(int(ss), gen+byte(i)))
					shadow[lba+i] = gen + byte(i)
				}
				if err := k.Write(p, lba*ss, buf, nSec*ss); err != nil {
					t.Fatal(err)
				}
			}
		}
		k.Flush(p)
		got := make([]byte, ss)
		for lba, gen := range shadow {
			if err := k.Read(p, lba*ss, got, ss); err != nil {
				t.Fatalf("lba %d: %v", lba, err)
			}
			if !bytes.Equal(got, fill(int(ss), gen)) {
				t.Fatalf("lba %d: content mismatch", lba)
			}
		}
	})
}

func TestPaddingAccountedOnFlushHeavyWorkload(t *testing.T) {
	// OLTP-like behaviour (paper §5.4): small writes with a flush after
	// each produce substantial padding.
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		for i := 0; i < 50; i++ {
			k.Write(p, int64(i)*4096, nil, 4096)
			k.Flush(p)
		}
		if k.Stats.PaddedSectors < 50 {
			t.Fatalf("padded sectors = %d, want >= 50 (one flush per 4K write)", k.Stats.PaddedSectors)
		}
	})
}
