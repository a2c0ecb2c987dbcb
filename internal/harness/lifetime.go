package harness

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

func init() {
	register("lifetime", "Device lifetime: durability and read tails across the P/E budget, scrubber on vs off", runLifetime)
}

// lifetimeGeometry is a small 8-PU device (same channel fan-out as the
// wa experiment) that can be aged through its whole P/E budget in seconds
// of virtual time.
func lifetimeGeometry(blocksPerPlane int) ppa.Geometry {
	return ppa.Geometry{
		Channels: 4, PUsPerChannel: 2, PlanesPerPU: 4,
		BlocksPerPlane: blocksPerPlane, PagesPerBlock: 32,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	}
}

// lifeRow is one life stage of one configuration.
type lifeRow struct {
	stage    int
	lifePct  float64 // mean P/E consumed / PECycleLimit
	maxPE    int
	bad      int64 // retired blocks (host view)
	lost     int   // unreadable sectors found by the full scan
	gcLost   int64 // sectors GC abandoned because their reads failed
	p99      time.Duration
	p999     time.Duration
	wa       float64
	scrubMB  float64 // data rewritten by scrub refreshes this stage
	ageRef   int64
	retryRef int64
	retries  int64 // device read-retry tiers charged this stage
}

// runLifetime ages a small device through most of its P/E budget under a
// hot/cold overwrite (95% of writes to a strided hot eighth), with a bake
// pause per stage so retention errors accumulate on the cold majority. At
// every stage boundary a full scan measures durability (unreadable
// sectors) and read tail latency. The same deterministic schedule runs
// twice: once with the pblk scrubber patrolling closed groups, once
// without. Mid-life, the device crash-recovers via the mount scan.
//
// Expected shape: the scrubber-off baseline accumulates retention BER on
// cold blocks until reads need deep retry tiers (inflated p99.9) and then
// exhaust them (lost sectors, GC-lost sectors); the scrubber-on run
// refreshes cold groups before decay crosses the retry horizon and loses
// nothing, at the cost of scrub write traffic.
func runLifetime(o Options) *Report {
	peLimit, accel, stages := 24, 1.0, 4
	if o.Quick {
		// Fewer stages means less wall-clock retention; bake harder so the
		// decay story still completes within two stages.
		peLimit, accel, stages = 14, 2, 2
	}
	const tiers = 6 // device read-retry tiers
	const blocks = 8
	const agingX = 3.0 // drive-writes of overwrite per stage
	const bake = 1500 * time.Millisecond

	media := func() nand.Config {
		m := nand.DefaultConfig()
		m.PECycleLimit = peLimit
		m.BERWearCoeff = 2e-3
		m.BERRetentionCoeff = 1e-3
		m.RetentionAccel = accel
		m.BERDisturbCoeff = 1e-5
		m.ECCBER = 1e-3
		m.ReadRetryStep = 1e-3
		m.ReadRetryTiers = tiers
		m.GrownBadProb = 0.1
		return m
	}

	run := func(scrub bool) ([]lifeRow, time.Duration) {
		env := sim.NewEnv(o.Seed)
		dev, err := ocssd.New(env, ocssd.Config{
			Geometry:  lifetimeGeometry(blocks),
			Timing:    ocssd.DefaultTiming(),
			Media:     media(),
			PageCache: true,
			Seed:      o.Seed,
		})
		check(err)
		ln := lightnvm.Register(fmt.Sprintf("life-scrub%v", scrub), dev)
		cfg := pblk.Config{OverProvision: 0.4, ActivePUs: 4}
		if scrub {
			cfg.ScrubInterval = 5 * time.Millisecond
			cfg.ScrubRetentionAge = 800 * time.Millisecond
		}
		geo := lifetimeGeometry(blocks)
		totalBlocks := geo.TotalPUs() * geo.PlanesPerPU * geo.BlocksPerPlane
		var rows []lifeRow
		var recovery time.Duration
		env.Go("lifetime", func(p *sim.Proc) {
			k, err := pblk.New(p, ln, "pblk-life", cfg)
			check(err)
			defer func() { k.Stop(p) }()
			const chunk = int64(64 << 10)
			// Leave an eighth of the LBA space unused: capacity is re-derived
			// from usable groups at mount, so a mid-life remount on a device
			// that grew bad blocks exports slightly less — the written span
			// must stay inside it.
			nChunks := k.Capacity() / chunk * 7 / 8
			for ci := int64(0); ci < nChunks; ci++ {
				check(k.Write(p, ci*chunk, nil, chunk))
			}
			check(k.Flush(p))
			rng := newRand(o.Seed + 11)
			for s := 1; s <= stages; s++ {
				base := k.Stats
				baseDev := dev.Stats
				overwriteWindow(p, env, k, int64(agingX*float64(nChunks)), nChunks, chunk, 8, rng, nil, true)
				p.Sleep(bake) // retention accumulates on the cold majority
				lost, lats := lifeScan(p, env, k, nChunks, chunk)
				wear := ln.WearOf(lightnvm.PURange{Begin: 0, End: geo.TotalPUs()})
				user := k.Stats.UserWrites - base.UserWrites
				moved := k.Stats.GCMovedSectors - base.GCMovedSectors
				padded := k.Stats.PaddedSectors - base.PaddedSectors
				row := lifeRow{
					stage:    s,
					lifePct:  float64(wear.TotalPE) / float64(totalBlocks) / float64(peLimit) * 100,
					maxPE:    wear.MaxPE,
					bad:      k.Stats.BadBlocks,
					lost:     lost,
					gcLost:   k.Stats.GCLostSectors,
					scrubMB:  float64(k.Stats.ScrubbedSectors-base.ScrubbedSectors) * 4096 / 1e6,
					ageRef:   k.Stats.ScrubAgeRefreshes - base.ScrubAgeRefreshes,
					retryRef: k.Stats.ScrubRetryRefreshes - base.ScrubRetryRefreshes,
					retries:  dev.Stats.ReadRetries - baseDev.ReadRetries,
				}
				if user > 0 {
					row.wa = float64(user+moved+padded) / float64(user)
				}
				if len(lats) > 0 {
					sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
					row.p99 = lats[len(lats)*99/100]
					row.p999 = lats[len(lats)*999/1000]
				}
				rows = append(rows, row)
				if s == stages/2 {
					// Mid-life dirty shutdown: drop the FTL and the device's
					// volatile state, then remount through the scan recovery.
					k.Crash()
					t0 := env.Now()
					k, err = pblk.New(p, ln, "pblk-life", cfg)
					check(err)
					recovery = env.Now() - t0
				}
			}
		})
		env.Run()
		return rows, recovery
	}

	rep := &Report{}
	rep.section("").note("", fmt.Sprintf("P/E budget %d cycles, retention accel %.0fx, %d read-retry tiers, %d life stages of %.0f drive-writes (95%% to the hot eighth)",
		peLimit, accel, tiers, stages, agingX))
	emit := func(title string, scrub bool) *section {
		rows, recovery := run(scrub)
		s := rep.section(title)
		t := s.table("stage", "life %", "max P/E", "bad blk", "lost", "gc lost", "read p99 us", "p99.9 us", "WA", "scrub MB", "refresh age/retry", "dev retries")
		for _, r := range rows {
			t.add(num("%.0f", r.stage), num("%.0f", r.lifePct), num("%.0f", r.maxPE),
				num("%.0f", r.bad), num("%.0f", r.lost), num("%.0f", r.gcLost),
				us(r.p99), us(r.p999), num("%.2f", r.wa),
				num("%.1f", r.scrubMB), num("%.0f/%.0f", r.ageRef, r.retryRef),
				num("%.0f", r.retries))
		}
		s.note(fmt.Sprintf("mid-life crash: scan recovery remounted in %v", recovery.Round(time.Microsecond)))
		return s
	}
	emit("scrubber off (baseline)", false)
	emit("scrubber on (patrol + refresh + relocate)", true).note("",
		"expected shape: without scrubbing, cold blocks age past the retry horizon —",
		"reads burn ever deeper retry tiers until sectors become unreadable (lost /",
		"gc lost). The scrubber refreshes cold groups before decay crosses the",
		"horizon and loses nothing, paying for durability with scrub write traffic:",
		"higher WA, faster P/E consumption, and refresh rewrites competing with host",
		"reads (at real-time retention rates the patrol is far sparser than under",
		"this accelerated bake).")
	return rep
}

// lifeScan reads the whole LBA space at QD16, returning the number of
// unreadable (lost) 4 KB sectors and the per-chunk read latencies of the
// chunks that read clean.
func lifeScan(p *sim.Proc, env *sim.Env, k *pblk.Pblk, nChunks, chunk int64) (int, []time.Duration) {
	var lats []time.Duration
	var failed []int64
	next := int64(0)
	drive(p, k.OpenQueue(env, 16), func() *blockdev.Request {
		if next == nChunks {
			return nil
		}
		next++
		return &blockdev.Request{Op: blockdev.ReqRead, Off: (next - 1) * chunk, Length: chunk}
	}, func(r *blockdev.Request) {
		if r.Err != nil {
			failed = append(failed, r.Off)
		} else {
			lats = append(lats, r.Latency())
		}
	})
	// Count the damage inside failed chunks sector by sector.
	lost := 0
	buf := make([]byte, 4096)
	for _, off := range failed {
		for so := int64(0); so < chunk; so += 4096 {
			if err := k.Read(p, off+so, buf, 4096); err != nil {
				lost++
			}
		}
	}
	return lost, lats
}
