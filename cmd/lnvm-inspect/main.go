// Command lnvm-inspect creates a simulated open-channel SSD and dumps what
// the LightNVM subsystem exposes about it: geometry, PPA format, timing
// model, media constraints, and capacity accounting — the sysfs/ioctl view
// an administrator gets from a real LightNVM device.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/lightnvm"
	"repro/internal/lsmdb"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/pblk" // registers the pblk target type
	"repro/internal/ppa"
	"repro/internal/sim"
	"repro/internal/volume"
)

func main() {
	blocks := flag.Int("blocks", 1067, "blocks per plane (1067 = the paper's 2TB Westlake)")
	lanes := flag.Bool("lanes", false, "create a pblk target, run a short write burst, and dump per-lane writer stats")
	active := flag.Int("active", 16, "active write PUs for -lanes (must divide total PUs)")
	targets := flag.Bool("targets", false, "create two PU-partitioned pblk targets, run a burst on each, and dump the partition map with per-target stats")
	volumes := flag.Bool("volumes", false, "build a 4+1-device fleet, compose a RAID-10 volume, kill a member, and dump member health through the online rebuild")
	lsm := flag.Bool("lsm", false, "mount lsmdb on a flash-native pblk stream, run fill+overwrite, and dump per-stream group occupancy with the combined-WA readout")
	flag.Parse()

	env := sim.NewEnv(1)
	dev, err := ocssd.New(env, ocssd.DefaultConfig(*blocks))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ln := lightnvm.Register("nvme0n1", dev)
	id := ln.Identify()
	g := id.Geometry

	fmt.Printf("device: %s\n", ln.Name())
	fmt.Printf("geometry: %v\n", g)
	fmt.Printf("  channels:        %d\n", g.Channels)
	fmt.Printf("  PUs per channel: %d (total %d)\n", g.PUsPerChannel, g.TotalPUs())
	fmt.Printf("  planes per PU:   %d\n", g.PlanesPerPU)
	fmt.Printf("  blocks per plane:%d\n", g.BlocksPerPlane)
	fmt.Printf("  pages per block: %d\n", g.PagesPerBlock)
	fmt.Printf("  page size:       %d B + %d B OOB\n", g.PageSize(), g.OOBPerPage)
	fmt.Printf("  sector size:     %d B\n", g.SectorSize)
	fmt.Printf("  raw capacity:    %.2f GB\n", float64(g.TotalBytes())/1e9)

	f, _ := ppa.NewFormat(g)
	fmt.Printf("ppa format bits: ch=%d pu=%d plane=%d block=%d page=%d sector=%d\n",
		f.ChBits, f.PUBits, f.PlaneBits, f.BlockBits, f.PageBits, f.SectorBits)
	example := ppa.Addr{Ch: 3, PU: 5, Plane: 1, Block: 900, Page: 100, Sector: 2}
	fmt.Printf("example %v -> 0x%016x\n", example, f.Encode(example))

	fmt.Printf("timing: page read %v, page program %v, block erase %v, channel %.0f MB/s, cmd overhead %v\n",
		id.Timing.PageRead, id.Timing.PageProgram, id.Timing.BlockErase,
		id.Timing.ChannelMBps, id.Timing.CmdOverhead)
	fmt.Printf("media: PE limit %d, pair stride %d, strict pair reads %v\n",
		id.Media.PECycleLimit, id.Media.PairStride, id.Media.StrictPairRead)
	fmt.Printf("limits: max vector %d addrs, per-sector OOB %d B\n", id.MaxVectorLen, id.SectorOOB)
	fmt.Printf("target types registered: %v\n", lightnvm.TargetTypes())

	if *lanes {
		if err := inspectLanes(env, ln, *active); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	if *targets {
		if err := inspectTargets(env, ln); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	if *volumes {
		if err := inspectVolumes(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	if *lsm {
		if err := inspectLSM(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
}

// burst pushes a short write burst through a pblk target so its lane and
// GC counters show real activity.
func burst(p *sim.Proc, env *sim.Env, k *pblk.Pblk) (int64, time.Duration, error) {
	const chunk = 256 * 1024
	span := k.Capacity() / 8 / chunk * chunk
	start := env.Now()
	for off := int64(0); off < span; off += chunk {
		if err := k.Write(p, off, nil, chunk); err != nil {
			return 0, 0, fmt.Errorf("write: %w", err)
		}
	}
	if err := k.Flush(p); err != nil {
		return 0, 0, fmt.Errorf("flush: %w", err)
	}
	return span, env.Now() - start, nil
}

// printTargetPanel dumps one pblk target's operator view: its PU range,
// per-lane writer shards, and GC watermarks.
func printTargetPanel(k *pblk.Pblk, span int64, elapsed time.Duration) {
	fmt.Printf("\ntarget %s: PU range %v (%d PUs, %d active), capacity %.1f GB\n",
		k.TargetName(), k.Partition(), k.Partition().Width(), k.ActivePUs(),
		float64(k.Capacity())/1e9)
	if elapsed > 0 {
		fmt.Printf("  burst: %d MB in %v (%.0f MB/s)\n",
			span>>20, elapsed.Round(time.Microsecond), float64(span)/1e6/elapsed.Seconds())
	}
	fmt.Printf("  %-5s %-9s %-6s %-6s %-6s %-6s %-10s %-7s %-7s %-7s\n",
		"lane", "pu span", "curPU", "queue", "gcq", "peak", "units", "stalls", "waits", "padded")
	for _, s := range k.LaneStats() {
		fmt.Printf("  %-5d %-9s %-6d %-6d %-6d %-6d %-10d %-7d %-7d %-7d\n",
			s.Lane, fmt.Sprintf("[%d,%d)", s.PULo, s.PUHi),
			s.CurPU, s.QueueDepth, s.GCQueueDepth, s.PeakDepth, s.UnitsWritten, s.SemStalls, s.Waits, s.Padded)
	}
	floor, gcStart, gcStop := k.GCWatermarks()
	fmt.Printf("  gc: moved=%d sectors, recycled=%d groups, lost=%d, peak in flight=%d,\n",
		k.Stats.GCMovedSectors, k.Stats.GCBlocksRecycled, k.Stats.GCLostSectors, k.Stats.GCPeakInFlight)
	fmt.Printf("      free groups=%d (floor %d, start %d, stop %d)\n",
		k.FreeGroups(), floor, gcStart, gcStop)
}

// printPartitionMap renders the device-level partition table: every
// recorded PU range, who holds it, and the unclaimed remainder.
func printPartitionMap(ln *lightnvm.Device) {
	total := ln.Geometry().TotalPUs()
	fmt.Printf("\npartition map (%d PUs):\n", total)
	parts := ln.Partitions()
	next := 0
	for _, pt := range parts {
		if pt.Range.Begin > next {
			fmt.Printf("  [%4d,%4d)  <free>\n", next, pt.Range.Begin)
		}
		state := "active"
		switch {
		case pt.Creating:
			state = "creating"
		case !pt.Active:
			state = "recorded, unmounted"
		}
		fmt.Printf("  %11s  %-12s %s\n", pt.Range, pt.Name, state)
		if pt.Range.End > next {
			next = pt.Range.End
		}
	}
	if next < total {
		fmt.Printf("  [%4d,%4d)  <free>\n", next, total)
	}
	if len(parts) == 0 {
		fmt.Println("  (no partitions recorded)")
	}
}

// printWearMap renders the media manager's per-tenant wear accounting:
// P/E consumption and grown bad blocks aggregated over each partition's
// PU range, so the operator can see which tenant is burning which media.
func printWearMap(ln *lightnvm.Device) {
	fmt.Printf("\nper-tenant wear:\n")
	fmt.Printf("  %-12s %-11s %-5s %-10s %-9s %-6s\n",
		"tenant", "pu range", "pus", "total P/E", "avg/PU", "bad")
	for _, pt := range ln.Partitions() {
		w := ln.WearOf(pt.Range)
		avg := float64(0)
		if w.PUs > 0 {
			avg = float64(w.TotalPE) / float64(w.PUs)
		}
		fmt.Printf("  %-12s %-11s %-5d %-10d %-9.1f %-6d\n",
			pt.Name, pt.Range, w.PUs, w.TotalPE, avg, w.BadBlocks)
	}
	fmt.Printf("  media payload store: %.1f MB of host memory in NAND page buffers\n",
		float64(ln.Raw().PayloadBytes())/1e6)
}

// inspectTargets mounts two PU-partitioned pblk targets — the media
// manager's multi-tenant mode — runs a short burst on each, and prints
// the partition map plus each target's lane/GC panel.
func inspectTargets(env *sim.Env, ln *lightnvm.Device) error {
	var out error
	env.Go("targets", func(p *sim.Proc) {
		total := ln.Geometry().TotalPUs()
		half := total / 2
		ranges := []lightnvm.PURange{{Begin: 0, End: half}, {Begin: half, End: total}}
		names := []string{"pblk-a", "pblk-b"}
		var ks []*pblk.Pblk
		for i, name := range names {
			tgt, err := ln.CreateTarget(p, "pblk", name, ranges[i], pblk.Config{})
			if err != nil {
				out = err
				return
			}
			ks = append(ks, tgt.(*pblk.Pblk))
		}
		printPartitionMap(ln)
		for _, k := range ks {
			span, elapsed, err := burst(p, env, k)
			if err != nil {
				out = err
				return
			}
			printTargetPanel(k, span, elapsed)
		}
		printWearMap(ln)
		for _, name := range names {
			if err := ln.RemoveTarget(p, name); err != nil {
				out = fmt.Errorf("remove %s: %w", name, err)
				return
			}
		}
	})
	env.Run()
	return out
}

// inspectLanes instantiates a full-device pblk target, pushes a short
// QD-free write burst through it, and prints the per-lane writer shards —
// the operator view of the sharded write datapath (queue depth high-water,
// semaphore stalls, padding, PU rotation position).
func inspectLanes(env *sim.Env, ln *lightnvm.Device, active int) error {
	var out error
	env.Go("lanes", func(p *sim.Proc) {
		tgt, err := ln.CreateTarget(p, "pblk", "pblk0", lightnvm.PURange{}, pblk.Config{ActivePUs: active})
		if err != nil {
			out = err
			return
		}
		k := tgt.(*pblk.Pblk)
		span, elapsed, err := burst(p, env, k)
		if err != nil {
			out = err
			return
		}
		printTargetPanel(k, span, elapsed)
		if err := ln.RemoveTarget(p, "pblk0"); err != nil {
			out = fmt.Errorf("remove: %w", err)
		}
	})
	env.Run()
	return out
}

// printStreamPanel renders per-stream group occupancy: how the FTL's
// block groups are divided between the user, GC, and app write streams,
// and how full each stream's groups are. On a flash-native LSM stack the
// app stream should run at ~100% occupancy — whole-table extents die as a
// unit, so closed app groups are either fully valid or fully dead.
func printStreamPanel(k *pblk.Pblk, sectorSize int) {
	dataSectors := k.EraseUnitBytes() / int64(sectorSize)
	fmt.Printf("\nper-stream group occupancy:\n")
	fmt.Printf("  %-6s %-5s %-7s %-11s %-9s %-9s\n",
		"stream", "open", "closed", "gc-claimed", "valid MB", "occupancy")
	for _, s := range k.StreamStats() {
		groups := int64(s.OpenGroups + s.ClosedGroups + s.GCGroups)
		occ := "-"
		if groups > 0 {
			occ = fmt.Sprintf("%.0f%%", 100*float64(s.ValidSectors)/float64(groups*dataSectors))
		}
		fmt.Printf("  %-6s %-5d %-7d %-11d %-9.1f %-9s\n",
			s.Stream, s.OpenGroups, s.ClosedGroups, s.GCGroups,
			float64(s.ValidSectors)*float64(sectorSize)/1e6, occ)
	}
	fmt.Printf("  free groups: %d\n", k.FreeGroups())
}

// inspectLSM mounts the lsmdb engine on a flash-native pblk stream — the
// LSM/FTL co-design stack the wa-e2e experiment measures — runs fill plus
// overwrite drive-passes, and dumps the operator view: per-stream group
// occupancy and the combined (app x FTL) write-amplification readout.
func inspectLSM() error {
	env := sim.NewEnv(1)
	media := nand.DefaultConfig()
	media.PECycleLimit = 0
	media.WearLatencyFactor = 0
	geo := ppa.Geometry{
		Channels: 4, PUsPerChannel: 2, PlanesPerPU: 2,
		BlocksPerPlane: 28, PagesPerBlock: 32,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	}
	dev, err := ocssd.New(env, ocssd.Config{
		Geometry: geo, Timing: ocssd.DefaultTiming(), Media: media,
		PageCache: true, Seed: 1,
	})
	if err != nil {
		return err
	}
	ln := lightnvm.Register("lsm0n1", dev)
	var out error
	env.Go("lsm", func(p *sim.Proc) {
		k, err := pblk.New(p, ln, "pblk-lsm", pblk.Config{
			ActivePUs: 2, OverProvision: 0.10, HintPolicy: pblk.HintNativeStream,
		})
		if err != nil {
			out = err
			return
		}
		defer k.Stop(p)
		segment := int64(k.ActivePUs()) * k.EraseUnitBytes()
		cfg := lsmdb.DefaultConfig()
		cfg.Seed = 1
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
		cfg.ColdHints = true
		db, err := lsmdb.Open(p, env, k, cfg)
		if err != nil {
			out = err
			return
		}
		fmt.Printf("\nlsm stack: lsmdb on %s, flash-native append stream\n", k.TargetName())
		fmt.Printf("  erase unit %d KB x %d lanes -> table slot %d KB; memtable %d KB\n",
			k.EraseUnitBytes()>>10, k.ActivePUs(), segment>>10, cfg.MemtableSize>>10)
		entries := int64(0.42*float64(k.Capacity())) / int64(cfg.KeySize+cfg.ValueSize)
		lsmdb.FillRandomN(p, db, 4, entries)
		lsmdb.OverwriteRandomN(p, db, 4, entries, 1)
		ftl0 := k.Stats
		appB := db.WALBytes + db.FlushedBytes + db.CompactionWriteBytes
		inB := db.UserBytesIn
		res := lsmdb.OverwriteRandomN(p, db, 4, entries, 2)
		appWA := float64(db.WALBytes+db.FlushedBytes+db.CompactionWriteBytes-appB) /
			float64(db.UserBytesIn-inB)
		user := k.Stats.UserWrites - ftl0.UserWrites
		moved := k.Stats.GCMovedSectors - ftl0.GCMovedSectors
		padded := k.Stats.PaddedSectors - ftl0.PaddedSectors
		ftlWA := float64(user+moved+padded) / float64(user)
		fmt.Printf("  fill %d entries (42%% of capacity) + 1 warm-up + 1 measured drive-pass: %.1f MB/s\n",
			entries, res.UserMBps)
		fmt.Printf("  levels: %v tables\n", db.LevelTables())
		printStreamPanel(k, geo.SectorSize)
		fmt.Printf("\ncombined write amplification (measured pass):\n")
		fmt.Printf("  app WA   %.2f  (WAL + flush + compaction bytes / user bytes)\n", appWA)
		fmt.Printf("  FTL WA   %.2f  (user + GC-moved + padded sectors / user: moved=%d padded=%d)\n",
			ftlWA, moved, padded)
		fmt.Printf("  combined %.2f  (media bytes per user byte)\n", appWA*ftlWA)
		if err := db.Close(p); err != nil {
			out = err
		}
	})
	env.Run()
	return out
}

// printVolumePanel renders the operator view of one volume: layout and
// health, then every fleet member's state and routing counters.
func printVolumePanel(mgr *volume.Manager, v *volume.Volume) {
	st := v.Status()
	health := "optimal"
	switch {
	case st.Rebuilding:
		health = fmt.Sprintf("rebuilding (%.0f%%)", st.RebuildPct)
	case st.Degraded:
		health = "degraded"
	}
	fmt.Printf("\nvolume %s: %s, capacity %.1f GB, %s\n",
		st.Name, st.Layout, float64(st.Capacity)/1e9, health)
	fmt.Printf("  %-3s %-8s %-11s %-8s %-10s %-10s %-9s\n",
		"id", "device", "state", "volume", "sub-reads", "sub-writes", "injected")
	for _, m := range mgr.Members() {
		vn := "-"
		if m.Volume() != nil {
			vn = m.Volume().Name()
		}
		fmt.Printf("  %-3d %-8s %-11s %-8s %-10d %-10d %-9d\n",
			m.ID(), m.Name(), m.State(), vn, m.SubReads, m.SubWrites, m.Injected)
	}
	s := v.Stats()
	fmt.Printf("  stats: %d reads (%d degraded, %d retried), %d writes (%d parked), %d deaths, %d rebuilds done\n",
		s.Reads, s.DegradedReads, s.RetriedReads, s.Writes, s.ParkedWrites, s.MemberDeaths, s.RebuildsDone)
}

// inspectVolumes builds a small fleet, composes a stripe-of-mirrors
// volume, and walks it through the full failure lifecycle — healthy
// burst, member death, degraded serving, hot-spare attach, rate-limited
// online rebuild — dumping the member-health panel at each step.
func inspectVolumes() error {
	env := sim.NewEnv(1)
	var out error
	env.Go("volumes", func(p *sim.Proc) {
		mgr, err := volume.NewManager(p, env, volume.Config{
			Devices: 4, Spares: 1,
			OCSSD: volume.DefaultDeviceConfig(24),
			Pblk:  pblk.Config{OverProvision: 0.2},
			Seed:  1,
		})
		if err != nil {
			out = err
			return
		}
		v, err := mgr.CreateVolume("vol0",
			volume.StripeOfMirrors(128<<10, []int{0, 1}, []int{2, 3}),
			volume.Options{Rebuild: volume.RebuildConfig{RateMBps: 200}})
		if err != nil {
			out = err
			return
		}

		fmt.Printf("\nfleet: %d data devices + %d hot spare(s), %d PUs each\n",
			4, mgr.SparesLeft(), mgr.Member(0).Device().Geometry().TotalPUs())
		const chunk = 256 << 10
		span := v.Capacity() / 8 / chunk * chunk
		start := env.Now()
		for off := int64(0); off < span; off += chunk {
			if err := v.Write(p, off, nil, chunk); err != nil {
				out = err
				return
			}
		}
		if err := v.Flush(p); err != nil {
			out = err
			return
		}
		elapsed := env.Now() - start
		fmt.Printf("burst: %d MB in %v (%.0f MB/s)\n",
			span>>20, elapsed.Round(time.Microsecond), float64(span)/1e6/elapsed.Seconds())
		printVolumePanel(mgr, v)

		fmt.Println("\n--- killing member 1 (mirror of member 0) ---")
		mgr.Kill(1)
		for off := int64(0); off < span; off += chunk {
			if err := v.Read(p, off, nil, chunk); err != nil {
				out = fmt.Errorf("degraded read at %d: %w", off, err)
				return
			}
		}
		fmt.Printf("degraded scan: %d MB reread clean from surviving replicas\n", span>>20)
		printVolumePanel(mgr, v)

		fmt.Println("\n--- attaching hot spare, online rebuild at 200 MB/s ---")
		sp := mgr.TakeSpare()
		if sp == nil {
			out = fmt.Errorf("no hot spare available")
			return
		}
		if err := v.AttachSpare(sp); err != nil {
			out = err
			return
		}
		rbStart := env.Now()
		for v.Rebuilding() {
			p.Sleep(100 * time.Millisecond)
			if v.Rebuilding() {
				fmt.Printf("  t+%v: rebuild %.0f%%\n",
					(env.Now() - rbStart).Round(time.Millisecond), v.RebuildProgress()*100)
			}
		}
		fmt.Printf("rebuild finished in %v\n", (env.Now() - rbStart).Round(time.Millisecond))
		printVolumePanel(mgr, v)
	})
	env.Run()
	return out
}
