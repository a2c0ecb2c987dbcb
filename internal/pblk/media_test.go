package pblk

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestDynamicWearLeveling(t *testing.T) {
	// Repeated overwrites must spread erases across groups rather than
	// hammering one block (FIFO free lists).
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
		// that did recycle, the FIFO free lists must keep the device's P/E
		// counts tight.
		maxE, total, n := 0, 0, 0
		for _, g := range k.groups {
			if g.state == stSys || g.state == stBad {
				continue
			}
			pe := k.dev.Die(g.gpu).PECycles(0, g.blk)
			if pe == 0 {
				continue
			}
			n++
			total += pe
			maxE = max(maxE, pe)
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
			ActivePUs:         4,
			OverProvision:     0.3,
			ScrubInterval:     2 * time.Millisecond,
			ScrubRetentionAge: 40 * time.Millisecond,
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
