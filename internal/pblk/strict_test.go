package pblk

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/sim"
)

// strictDeviceConfig enables the multi-level-cell rule: lower pages are
// unreadable until their paired upper page is programmed.
func strictDeviceConfig() ocssd.Config {
	cfg := testDeviceConfig()
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	m.StrictPairRead = true
	m.PairStride = 2
	cfg.Media = m
	return cfg
}

func TestStrictPairBufferedReads(t *testing.T) {
	// With strict pairing, a freshly written sector whose flash page pair
	// is not yet programmed must be served from the write buffer (paper:
	// "reads are directed to the write buffer until all page pairs have
	// been persisted").
	e := newEnv(t, strictDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		data := fill(4096, 0x21)
		if err := k.Write(p, 0, data, 4096); err != nil {
			t.Fatal(err)
		}
		// Give the consumer time to submit and program the unit; the entry
		// must stay cached until its pair page lands.
		p.Sleep(5 * time.Millisecond)
		got := make([]byte, 4096)
		if err := k.Read(p, 0, got, 4096); err != nil {
			t.Fatalf("read under strict pairing: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data mismatch")
		}
	})
}

func TestStrictPairFlushCoversPairs(t *testing.T) {
	e := newEnv(t, strictDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		const chunk = 32 * 1024
		for i := 0; i < 8; i++ {
			if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(i+1)), chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		// After a flush all data must be readable — whether from buffer or
		// media — and pair covering must have added padding.
		got := make([]byte, chunk)
		for i := 0; i < 8; i++ {
			if err := k.Read(p, int64(i)*chunk, got, chunk); err != nil {
				t.Fatalf("chunk %d: %v", i, err)
			}
			if !bytes.Equal(got, fill(chunk, byte(i+1))) {
				t.Fatalf("chunk %d mismatch", i)
			}
		}
	})
}

func TestStrictPairCrashRecovery(t *testing.T) {
	e := newEnv(t, strictDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		const chunk = 32 * 1024
		for i := 0; i < 12; i++ {
			if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(i+1)), chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		k.Crash()
		// Recovery must pad half-written blocks before reading them
		// (paper §4.2.2: "padding must be implemented on the second phase
		// of recovery").
		k2 := e.newPblk(p, Config{ActivePUs: 4})
		defer k2.Stop(p)
		got := make([]byte, chunk)
		for i := 0; i < 12; i++ {
			if err := k2.Read(p, int64(i)*chunk, got, chunk); err != nil {
				t.Fatalf("chunk %d after strict-pair recovery: %v", i, err)
			}
			if !bytes.Equal(got, fill(chunk, byte(i+1))) {
				t.Fatalf("chunk %d lost across strict-pair crash", i)
			}
		}
	})
}

func TestDynamicWearLeveling(t *testing.T) {
	// Repeated overwrites must spread erases across groups rather than
	// hammering one block (min-erase free-group selection).
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.3})
		defer k.Stop(p)
		const chunk = 64 * 1024
		span := k.Capacity() / 2
		vol := 3 * k.Device().Geometry().TotalBytes()
		for written := int64(0); written < vol; written += chunk {
			off := (written / chunk * chunk) % span
			if err := k.Write(p, off, nil, chunk); err != nil {
				t.Fatal(err)
			}
		}
		k.Flush(p)
		// Groups holding still-valid data legitimately sit at zero erases
		// (static wear leveling is out of scope, §4.2.4); among groups
		// that did recycle, dynamic wear leveling must keep counts tight.
		maxE, total, n := 0, 0, 0
		for _, g := range k.groups {
			if g.state == stSys || g.state == stBad || g.erases == 0 {
				continue
			}
			n++
			total += g.erases
			if g.erases > maxE {
				maxE = g.erases
			}
		}
		if n == 0 {
			t.Fatal("no erases recorded")
		}
		mean := float64(total) / float64(n)
		if float64(maxE) > 3*mean+2 {
			t.Fatalf("wear imbalance: max %d vs mean %.1f over %d recycled groups", maxE, mean, n)
		}
	})
}

func TestRateLimiterQuota(t *testing.T) {
	rl := newRateLimiter(1024, 16)
	rl.calibrate(100, 50)
	rl.update(100) // plenty free
	if rl.userQuota != 1024 {
		t.Fatalf("quota at ample free = %d, want full", rl.userQuota)
	}
	// Starved: repeated updates must ramp the reservation to everything.
	for i := 0; i < 50; i++ {
		rl.update(0)
	}
	if rl.userQuota != 0 {
		t.Fatalf("quota at zero free = %d, want 0", rl.userQuota)
	}
	// Recovery restores the quota.
	for i := 0; i < 100; i++ {
		rl.update(100)
	}
	if rl.userQuota != 1024 {
		t.Fatalf("quota after recovery = %d, want full", rl.userQuota)
	}
	// Idle mode bypasses throttling entirely.
	for i := 0; i < 50; i++ {
		rl.update(0)
	}
	rl.idle = true
	rl.update(0)
	if rl.userQuota != 1024 {
		t.Fatalf("idle quota = %d, want full", rl.userQuota)
	}
}

func TestRateLimiterProgressFloor(t *testing.T) {
	rl := newRateLimiter(1024, 16)
	rl.calibrate(100, 50)
	// Mild scarcity must never drop the quota below one write unit.
	rl.update(49)
	if rl.userQuota < 16 {
		t.Fatalf("quota %d below the unit floor under mild pressure", rl.userQuota)
	}
}

func TestEraseFailureRetiresBlock(t *testing.T) {
	cfg := testDeviceConfig()
	m := cfg.Media
	m.EraseFailProb = 0.05
	cfg.Media = m
	e := newEnv(t, cfg)
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.3})
		defer k.Stop(p)
		const chunk = 64 * 1024
		span := k.Capacity() / 2
		vol := 2 * k.Device().Geometry().TotalBytes()
		for written := int64(0); written < vol; written += chunk {
			if err := k.Write(p, written%span/chunk*chunk, nil, chunk); err != nil {
				t.Fatal(err)
			}
		}
		k.Flush(p)
		if k.Stats.EraseErrors == 0 {
			t.Skip("no erase failures injected at this seed")
		}
		if k.Stats.BadBlocks < k.Stats.EraseErrors {
			t.Fatalf("erase errors %d but only %d retired blocks", k.Stats.EraseErrors, k.Stats.BadBlocks)
		}
	})
}

func TestStrictPairFailedUpperRescuesLower(t *testing.T) {
	// A failed upper-page program corrupts the paired lower page on MLC
	// media (the nand model now implements the pair loss). The lower
	// unit's acknowledged-but-unfinalized entries must be re-buffered and
	// rewritten before the suspect group waives pair covering — otherwise
	// finalize would point the L2P at corrupt flash and the data is gone.
	cfg := strictDeviceConfig()
	m := cfg.Media
	m.WriteFailProb = 0.02
	cfg.Media = m
	e := newEnv(t, cfg)
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.3})
		defer k.Stop(p)
		const chunk = 32 * 1024
		span := k.Capacity() / 2 / chunk * chunk
		bufs := make(map[int64]byte)
		vol := 2 * k.Device().Geometry().TotalBytes()
		var written int64
		for written = 0; written < vol; written += chunk {
			off := written % span
			seed := byte(written/chunk%251) + 1
			if err := k.Write(p, off, fill(chunk, seed), chunk); err != nil {
				t.Fatal(err)
			}
			bufs[off] = seed
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		if k.Stats.WriteErrors == 0 {
			t.Skip("no write failures injected at this seed")
		}
		if k.Stats.PairRescuedSectors == 0 {
			t.Skip("no upper-page failures with pending lower pairs at this seed")
		}
		got := make([]byte, chunk)
		for off, seed := range bufs {
			if err := k.Read(p, off, got, chunk); err != nil {
				t.Fatalf("read at %d after pair loss: %v", off, err)
			}
			if !bytes.Equal(got, fill(chunk, seed)) {
				t.Fatalf("data at %d lost across failed-upper pair corruption", off)
			}
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWornOutConvergesUnderGCAndScrub(t *testing.T) {
	// Worn-out path under concurrent GC and scrubbing: a tiny device with
	// a low P/E budget and steep grown-bad probability is overwritten
	// until a good share of its blocks die. GC retirement, the scrubber
	// patrol, and the writers must converge without deadlock, and every
	// failed erase must leave a retired block behind.
	cfg := testDeviceConfig()
	g := cfg.Geometry
	g.BlocksPerPlane = 16
	g.PagesPerBlock = 16
	cfg.Geometry = g
	m := cfg.Media
	m.PECycleLimit = 10
	m.GrownBadProb = 1.0
	m.BERWearCoeff = 8e-3
	m.ECCBER = 1e-3
	m.ReadRetryStep = 1e-3
	m.ReadRetryTiers = 8
	cfg.Media = m
	e := newEnv(t, cfg)
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{
			ActivePUs:           4,
			OverProvision:       0.3,
			ScrubInterval:       2 * time.Millisecond,
			ScrubRetentionAge:   40 * time.Millisecond,
			ScrubRetryThreshold: 2,
		})
		defer k.Stop(p)
		const chunk = 64 * 1024
		span := k.Capacity() / 2 / chunk * chunk
		vol := 5 * k.Device().Geometry().TotalBytes()
		badTarget := int64(len(k.groups) / 4)
		for written := int64(0); written < vol; written += chunk {
			if err := k.Write(p, written%span, nil, chunk); err != nil {
				t.Fatal(err)
			}
			if k.Stats.BadBlocks >= badTarget {
				break
			}
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		if k.Stats.BadBlocks == 0 {
			t.Fatal("no blocks wore out: the device was not driven past its P/E budget")
		}
		if k.Stats.BadBlocks < k.Stats.EraseErrors {
			t.Fatalf("erase errors %d but only %d retired blocks", k.Stats.EraseErrors, k.Stats.BadBlocks)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
