package harness

import (
	"fmt"
	"time"

	"repro/internal/lightnvm"
	"repro/internal/lsmdb"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

func init() {
	register("wa-e2e", "LSM on open-channel: combined app x FTL write amplification vs hint policy", runWAE2E)
}

// waE2EGeometry is a small device (8 PUs, ~1 MB block groups) so every
// stack cycles the media — the whole free pool consumed and reclaimed —
// within a few drive-writes of overwrite volume.
func waE2EGeometry(blocksPerPlane int) ppa.Geometry {
	return ppa.Geometry{
		Channels: 4, PUsPerChannel: 2, PlanesPerPU: 2,
		BlocksPerPlane: blocksPerPlane, PagesPerBlock: 32,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	}
}

// waE2EMode is one stacking of the LSM engine over pblk.
type waE2EMode struct {
	name   string
	policy pblk.HintPolicy
	hints  bool // engine tags SSTable writes HintCold
}

var waE2EModes = []waE2EMode{
	// The log-on-log baseline: the FTL sees one undifferentiated write
	// stream, so WAL laps, flushed memtables, and compaction output share
	// block groups and GC untangles them by copying.
	{"stacked baseline (ignore)", pblk.HintIgnore, false},
	// Hinted table writes ride the GC/cold stream: segregated from hot
	// WAL traffic but still mixed with the collector's own rewrites.
	{"cold-stream hints", pblk.HintColdStream, true},
	// Flash-native: table writes get a dedicated append stream, so a
	// compaction that erases its inputs leaves whole groups invalid and
	// reclaim is a pure erase — the LSM's compaction IS the GC.
	{"flash-native stream", pblk.HintNativeStream, true},
}

type waE2ERow struct {
	name   string
	appWA  float64 // engine bytes out per user byte in
	ftlWA  float64 // media sectors per engine sector
	comb   float64 // product: media bytes per user byte
	wMBps  float64 // overwrite throughput, measured pass
	stalls int64
	p99    time.Duration // read p99 under readwhilewriting
}

// waE2EDBConfig sizes the engine to the device, the way a flash-native
// deployment would: 2 KB entries packed two to a 4 KB block (one record
// is 15+16+2016 = 2047 bytes, so a block is exactly one sector — zero
// format padding), and table slots set to the FTL's erase unit so every
// SSTable consumes exactly one block group of the append stream. All
// three stacks run the identical engine config; only the hint policy
// differs, so the comparison isolates what the FTL does with the stream.
// The segment (table slot) spans lanes x erase unit: pblk stripes a
// stream's units round-robin over its lanes, so a segment this size lays
// down exactly one whole block group per lane and a trimmed table
// invalidates whole groups.
func waE2EDBConfig(o Options, hints bool, segment int64) lsmdb.Config {
	cfg := lsmdb.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.KeySize = 16
	cfg.ValueSize = 2016
	cfg.MemtableSize = segment - 160<<10
	cfg.WALSize = 4 << 20
	cfg.WALSyncBytes = 128 << 10
	cfg.L0CompactionTrigger = 2
	cfg.L0StallLimit = 4
	cfg.LevelRatio = 3
	cfg.MaxLevels = 3
	cfg.BlockSize = 4 << 10
	cfg.TableTargetSize = segment - 128<<10
	cfg.TableSlotSize = segment
	cfg.BlockCacheSize = 8 << 20
	cfg.ColdHints = hints
	return cfg
}

// runWAE2E measures the end-to-end cost of the log-on-log stack and what
// stream separation buys back. For each space-amplification target
// (dataset as a fraction of device capacity) and each hint policy, the
// run is fillrandom to the target, warm-up overwrite passes to reach GC
// steady state, one measured overwrite pass, then readwhilewriting:
//
//	app WA      = (WAL + flush + compaction bytes) / user KV bytes
//	FTL  WA     = (user + GC-moved + padded sectors) / user sectors
//	combined WA = app WA x FTL WA  (media bytes per user KV byte)
//
// The flash-native stream should win combined WA and steady-state
// overwrite throughput against the stacked baseline: its compaction
// already erases whole table extents, so the FTL has nothing to move.
func runWAE2E(o Options) *Report {
	blocks := 28
	utils := []float64{0.42, 0.46}
	warmPasses := 2
	if o.Quick {
		utils = []float64{0.46}
	}

	run := func(mode waE2EMode, util float64) waE2ERow {
		env := sim.NewEnv(o.Seed)
		dev, err := ocssd.New(env, wearFreeConfig(waE2EGeometry(blocks), o.Seed))
		check(err)
		ln := lightnvm.Register(fmt.Sprintf("wae2e-%s-u%02d", mode.name, int(util*100+0.5)), dev)
		row := waE2ERow{name: mode.name}
		env.Go("wae2e", func(p *sim.Proc) {
			k, err := pblk.New(p, ln, "pblk-wae2e", pblk.Config{
				ActivePUs: 2, OverProvision: 0.10, HintPolicy: mode.policy,
			})
			checkIn(mode.name, err)
			defer k.Stop(p)
			cfg := waE2EDBConfig(o, mode.hints, int64(k.ActivePUs())*k.EraseUnitBytes())
			db, err := lsmdb.Open(p, env, k, cfg)
			checkIn(mode.name, err)
			entries := int64(util*float64(k.Capacity())) / int64(cfg.KeySize+cfg.ValueSize)
			checkIn(mode.name, lsmdb.FillRandomN(p, db, 4, entries).Err)
			for r := int64(1); r <= int64(warmPasses); r++ {
				checkIn(mode.name, lsmdb.OverwriteRandomN(p, db, 4, entries, r).Err)
			}
			ftl0 := k.Stats
			walB := db.WALBytes
			flushB := db.FlushedBytes
			compB := db.CompactionWriteBytes
			inB := db.UserBytesIn
			stalls0 := db.WriteStalls
			res := lsmdb.OverwriteRandomN(p, db, 4, entries, int64(warmPasses)+1)
			checkIn(mode.name, res.Err)
			appOut := (db.WALBytes - walB) + (db.FlushedBytes - flushB) + (db.CompactionWriteBytes - compB)
			appIn := db.UserBytesIn - inB
			user := k.Stats.UserWrites - ftl0.UserWrites
			moved := k.Stats.GCMovedSectors - ftl0.GCMovedSectors
			padded := k.Stats.PaddedSectors - ftl0.PaddedSectors
			if appIn > 0 {
				row.appWA = float64(appOut) / float64(appIn)
			}
			if user > 0 {
				row.ftlWA = float64(user+moved+padded) / float64(user)
			}
			row.comb = row.appWA * row.ftlWA
			row.wMBps = res.UserMBps
			row.stalls = db.WriteStalls - stalls0
			mix := lsmdb.ReadWhileWriting(p, db, 4, 2*o.Duration)
			checkIn(mode.name, mix.Err)
			row.p99 = mix.ReadLat.Percentile(99)
			checkIn(mode.name, db.Close(p))
		})
		env.Run()
		return row
	}

	rep := &Report{}
	var s *section
	for _, util := range utils {
		rows := make([]waE2ERow, 0, len(waE2EModes))
		for _, mode := range waE2EModes {
			rows = append(rows, run(mode, util))
		}
		s = rep.section(fmt.Sprintf("End-to-end WA, dataset %d%% of capacity: fillrandom + %d warm-up + 1 measured drive-write",
			int(util*100+0.5), warmPasses))
		t := s.table("stack", "app WA", "FTL WA", "combined", "W MB/s", "read p99 ms", "stalls")
		for _, r := range rows {
			t.add(label(r.name), num("%.2f", r.appWA), num("%.2f", r.ftlWA),
				num("%.2f", r.comb), num("%.2f", r.wMBps), ms(r.p99), num("%.0f", r.stalls))
		}
		base, native := rows[0], rows[len(rows)-1]
		s.note("", fmt.Sprintf("flash-native vs stacked: combined WA %.2f -> %.2f, overwrite %.2f -> %.2f MB/s",
			base.comb, native.comb, base.wMBps, native.wMBps))
	}
	s.note("", "expected shape: the stacked baseline pays twice — the engine's own compaction",
		"rewrites plus FTL GC untangling WAL laps from table extents in shared blocks.",
		"Cold-stream hints remove tables from the hot stream; the flash-native stream",
		"also erases whole table extents at compaction, leaving GC a pure erase.")
	return rep
}
