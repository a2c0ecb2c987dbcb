package main

import (
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/volume"
)

// counters is a snapshot of every layer's exported statistics, summed over
// the stack's devices. Per-layer count metrics are deltas of two snapshots
// taken around the measured phase.
type counters struct {
	spawns int64
	nand   nand.Stats
	oc     ocssd.Stats
	pb     pblk.Stats
	// memberReads is pblk.Stats.UserReads per stack member, for the
	// volume's read balance.
	memberReads []int64
	// lane telemetry: stalls and waits are cumulative, peak is a
	// high-water mark over the target's lifetime.
	laneSemStalls, laneWaits int64
	lanePeakDepth            int
	vol                      volume.Stats
	db                       lsmCounters
}

// lsmCounters mirrors lsmdb.DB's exported counters.
type lsmCounters struct {
	gets                                 int64
	userBytesIn                          int64
	walBytes, flushedBytes               int64
	compactionRead, compactionWrite      int64
	syncs, writeStalls                   int64
	cacheHits, cacheMisses, bloomSkips   int64
	flushes, compactions, liveTableSlots int64
}

func (st *stack) snapshot() counters {
	c := counters{spawns: st.env.Spawns()}
	for _, d := range st.ocssds {
		for pu := 0; pu < d.Geometry().TotalPUs(); pu++ {
			s := d.Die(pu).Stats
			c.nand.PageReads += s.PageReads
			c.nand.PagePrograms += s.PagePrograms
			c.nand.BlockErases += s.BlockErases
		}
		s := d.Stats
		c.oc.Reads += s.Reads
		c.oc.Writes += s.Writes
		c.oc.Erases += s.Erases
		c.oc.SectorsRead += s.SectorsRead
		c.oc.SectorsWritten += s.SectorsWritten
		c.oc.FlashReads += s.FlashReads
		c.oc.FlashPrograms += s.FlashPrograms
		c.oc.CacheHits += s.CacheHits
		c.oc.Suspensions += s.Suspensions
		c.oc.ReadRetries += s.ReadRetries
	}
	for _, k := range st.pblks {
		s := k.Stats
		c.pb.UserWrites += s.UserWrites
		c.pb.UserReads += s.UserReads
		c.pb.CacheReads += s.CacheReads
		c.pb.PaddedSectors += s.PaddedSectors
		c.pb.GCMovedSectors += s.GCMovedSectors
		c.pb.GCBlocksRecycled += s.GCBlocksRecycled
		c.pb.GCPeakInFlight = max(c.pb.GCPeakInFlight, s.GCPeakInFlight)
		c.memberReads = append(c.memberReads, s.UserReads)
		for _, l := range k.LaneStats() {
			c.laneSemStalls += l.SemStalls
			c.laneWaits += l.Waits
			c.lanePeakDepth = max(c.lanePeakDepth, l.PeakDepth)
		}
	}
	if st.vol != nil {
		c.vol = st.vol.Stats()
	}
	if db := st.db; db != nil {
		c.db = lsmCounters{
			gets: db.Gets, userBytesIn: db.UserBytesIn,
			walBytes: db.WALBytes, flushedBytes: db.FlushedBytes,
			compactionRead: db.CompactionReadBytes, compactionWrite: db.CompactionWriteBytes,
			syncs: db.Syncs, writeStalls: db.WriteStalls,
			cacheHits: db.CacheHits, cacheMisses: db.CacheMisses, bloomSkips: db.BloomSkips,
			flushes: db.Flushes, compactions: db.Compactions,
		}
		for _, n := range db.LevelTables() {
			c.db.liveTableSlots += int64(n)
		}
	}
	return c
}

// minFreeGroups is the scarcest free-group pool over the stack's targets.
func (st *stack) minFreeGroups() int {
	m := -1
	for _, k := range st.pblks {
		if f := k.FreeGroups(); m < 0 || f < m {
			m = f
		}
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// phaseTotals is what the load generator saw over the phase the counter
// deltas cover.
type phaseTotals struct {
	ops           int64 // completed user operations
	userSectors   int64 // sectors the user read and wrote at the top layer
	freeGroupsMin int   // sampled at slice boundaries
}

// layerCounts turns the counter delta b−a over a phase into the per-layer
// count metrics, normalised per user operation ("per_io") or per thousand
// ("per_kio").
func layerCounts(m metrics, st *stack, a, b counters, ph phaseTotals) {
	perIO := func(n int64) float64 { return ratio(n, ph.ops) }
	perKIO := func(n int64) float64 { return 1000 * ratio(n, ph.ops) }

	m["sim.spawns_per_kio"] = perKIO(b.spawns - a.spawns)

	m["nand.page_reads_per_io"] = perIO(b.nand.PageReads - a.nand.PageReads)
	m["nand.page_programs_per_io"] = perIO(b.nand.PagePrograms - a.nand.PagePrograms)
	m["nand.block_erases_per_kio"] = perKIO(b.nand.BlockErases - a.nand.BlockErases)

	vectors := (b.oc.Reads - a.oc.Reads) + (b.oc.Writes - a.oc.Writes) + (b.oc.Erases - a.oc.Erases)
	sectors := (b.oc.SectorsRead - a.oc.SectorsRead) + (b.oc.SectorsWritten - a.oc.SectorsWritten)
	m["ocssd.vector_cmds_per_io"] = perIO(vectors)
	m["ocssd.sectors_per_vector"] = ratio(sectors, (b.oc.Reads-a.oc.Reads)+(b.oc.Writes-a.oc.Writes))
	m["ocssd.flash_reads_per_io"] = perIO(b.oc.FlashReads - a.oc.FlashReads)
	m["ocssd.flash_programs_per_io"] = perIO(b.oc.FlashPrograms - a.oc.FlashPrograms)
	m["ocssd.erases_per_kio"] = perKIO(b.oc.Erases - a.oc.Erases)
	hits, flashReads := b.oc.CacheHits-a.oc.CacheHits, b.oc.FlashReads-a.oc.FlashReads
	m["ocssd.page_cache_hit_ratio"] = ratio(hits, hits+flashReads)
	m["ocssd.suspensions_per_kio"] = perKIO(b.oc.Suspensions - a.oc.Suspensions)
	m["ocssd.read_retries_per_kio"] = perKIO(b.oc.ReadRetries - a.oc.ReadRetries)

	userR, userW := b.pb.UserReads-a.pb.UserReads, b.pb.UserWrites-a.pb.UserWrites
	moved, padded := b.pb.GCMovedSectors-a.pb.GCMovedSectors, b.pb.PaddedSectors-a.pb.PaddedSectors
	m["pblk.read_sectors_per_io"] = perIO(userR)
	m["pblk.write_sectors_per_io"] = perIO(userW)
	m["pblk.cache_read_ratio"] = ratio(b.pb.CacheReads-a.pb.CacheReads, userR)
	m["pblk.gc_moved_per_user_sector"] = ratio(moved, userW)
	m["pblk.padded_per_user_sector"] = ratio(padded, userW)
	m["pblk.ftl_wa"] = ratio(userW+moved+padded, userW)
	m["pblk.gc_groups_recycled_per_kio"] = perKIO(b.pb.GCBlocksRecycled - a.pb.GCBlocksRecycled)
	m["pblk.gc_peak_inflight"] = float64(b.pb.GCPeakInFlight)
	m["pblk.free_groups_min"] = float64(ph.freeGroupsMin)
	m["pblk.lane_sem_stalls_per_kio"] = perKIO(b.laneSemStalls - a.laneSemStalls)
	m["pblk.lane_waits_per_kio"] = perKIO(b.laneWaits - a.laneWaits)
	m["pblk.lane_peak_depth"] = float64(b.lanePeakDepth)

	if st.vol != nil {
		m["volume.member_sectors_per_user_sector"] = ratio(userR+userW, ph.userSectors)
		var maxR, sumR int64
		for i := range b.memberReads {
			r := b.memberReads[i] - a.memberReads[i]
			sumR += r
			maxR = max(maxR, r)
		}
		m["volume.read_imbalance"] = ratio(maxR*int64(len(b.memberReads)), sumR)
		m["volume.retried_per_kio"] = perKIO((b.vol.RetriedReads - a.vol.RetriedReads) + (b.vol.RetriedWrites - a.vol.RetriedWrites))
		m["volume.parked_writes_per_kio"] = perKIO(b.vol.ParkedWrites - a.vol.ParkedWrites)
	}

	if st.db != nil {
		in := b.db.userBytesIn - a.db.userBytesIn
		wal, fl := b.db.walBytes-a.db.walBytes, b.db.flushedBytes-a.db.flushedBytes
		cw, cr := b.db.compactionWrite-a.db.compactionWrite, b.db.compactionRead-a.db.compactionRead
		gets := b.db.gets - a.db.gets
		hit, miss := b.db.cacheHits-a.db.cacheHits, b.db.cacheMisses-a.db.cacheMisses
		m["lsmdb.app_wa"] = ratio(wal+fl+cw, in)
		m["lsmdb.wal_bytes_per_user_byte"] = ratio(wal, in)
		m["lsmdb.flush_bytes_per_user_byte"] = ratio(fl, in)
		m["lsmdb.compaction_write_per_user_byte"] = ratio(cw, in)
		m["lsmdb.compaction_read_per_user_byte"] = ratio(cr, in)
		m["lsmdb.block_cache_hit_ratio"] = ratio(hit, hit+miss)
		m["lsmdb.bloom_skips_per_get"] = ratio(b.db.bloomSkips-a.db.bloomSkips, gets)
		m["lsmdb.write_stalls_per_kop"] = perKIO(b.db.writeStalls - a.db.writeStalls)
		m["lsmdb.syncs_per_kop"] = perKIO(b.db.syncs - a.db.syncs)
		m["lsmdb.compactions"] = float64(b.db.compactions - a.db.compactions)
		m["lsmdb.flushes"] = float64(b.db.flushes - a.db.flushes)
		slot := int64(st.pblks[0].ActivePUs()) * st.pblks[0].EraseUnitBytes()
		m["lsmdb.space_amp"] = ratio(b.db.liveTableSlots*slot, lsmDatasetBytes)
	}
}
