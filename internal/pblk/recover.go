package pblk

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// recover restores the mapping table at target creation (paper §4.2.2):
// from the on-media snapshot after a graceful shutdown, otherwise by the
// two-phase scan over block metadata and per-page OOB.
func (k *Pblk) recover(p *sim.Proc) error {
	if k.loadSnapshot(p) {
		k.Stats.SnapshotLoads++
		k.rebuildFreeLists()
		k.recountValid()
		return nil
	}
	if err := k.scanRecover(p); err != nil {
		return err
	}
	k.rebuildFreeLists()
	k.recountValid()
	return nil
}

// rebuildFreeLists reconstructs the per-PU free lists from group states,
// in group id order.
func (k *Pblk) rebuildFreeLists() {
	clear(k.freePerPU)
	k.freeGroups = 0
	for _, g := range k.groups {
		if g.state == stFree {
			k.freePerPU[g.pu].Push(g.id)
			k.freeGroups++
		}
	}
}

// recountValid recomputes per-group valid sector counts from the L2P.
func (k *Pblk) recountValid() {
	for id, n := range k.countValid(k.groupOfEntry) {
		k.groups[id].valid = n
	}
}

// countValid counts, by group id, the L2P entries mapped to media; groupOf
// finds an entry's group.
func (k *Pblk) countValid(groupOf func(v uint64) *group) []int {
	counts := make([]int, len(k.groups))
	for _, v := range k.l2p {
		if isMedia(v) {
			counts[groupOf(v).id]++
		}
	}
	return counts
}

// recSector is one recovered data sector: its admission stamp, owning
// group, and group-relative index (the order lbas were appended during
// mapping, which sectorAddr translates to a physical address).
type recSector struct {
	stamp uint64
	g     *group
	idx   int
	lba   int64
}

// found is one data-holding group discovered by the classify phase.
type found struct {
	g      *group
	seq    uint64
	lbas   []int64
	stamps []uint64
}

// scanRecover performs the two-phase recovery: classify every group as
// free, fully written, or partially written by reading its first and last
// pages; gather fully written groups' FTL logs, then partially written
// groups' per-page OOB (padding them to completion and closing them, paper
// §4.2.2). Sectors are finally replayed into the L2P in
// global admission-stamp order — groups fill concurrently on different
// lanes AND several groups are open per PU (one per write stream, plus GC
// victims draining), so neither group order nor classification phase
// alone orders overwrites of the same sector correctly.
//
// The classify + close-meta phase runs as one process per PU, each walking
// its PU's groups with one vector command in flight, so the device is
// scanned at full PU parallelism; the virtual time the whole scan takes is
// recorded in Stats.RecoverScanTime.
func (k *Pblk) scanRecover(p *sim.Proc) error {
	k.Stats.Recoveries++
	scanStart := k.env.Now()
	fulls, partials, maxSeq := k.classify(p)

	var sectors []recSector
	collect := func(g *group, lbas []int64, stamps []uint64) {
		for i, lba := range lbas {
			if lba == padLBA || lba < 0 || lba >= k.capacityLBAs {
				continue
			}
			var st uint64
			if i < len(stamps) {
				st = stamps[i]
			}
			sectors = append(sectors, recSector{stamp: st, g: g, idx: i, lba: lba})
		}
	}

	// Phase one: fully written blocks — the FTL log on each block's last
	// pages supplies the mapping portion and per-sector stamps.
	for _, f := range fulls {
		collect(f.g, f.lbas, f.stamps)
		f.g.state = stClosed
		f.g.nextUnit = k.unitsPerGroup
		k.noteGroupClosed(f.g)
	}

	// Phase two: partially written blocks — scanned linearly until an
	// unwritten page, then padded and closed.
	sort.Slice(partials, func(i, j int) bool { return partials[i].seq < partials[j].seq })
	for _, f := range partials {
		watermark, lbas, stamps := k.scanGroupOOB(p, f.g)
		collect(f.g, lbas, stamps)
		for _, s := range stamps {
			if s > k.unitStamp {
				k.unitStamp = s
			}
		}
		if err := k.padGroupTail(p, f.g, watermark, lbas, stamps); err != nil {
			return err
		}
		f.g.state = stClosed
		f.g.nextUnit = k.unitsPerGroup
		k.noteGroupClosed(f.g)
	}

	// Replay: globally ordered by admission stamp, later sectors overwrite.
	// Stamps are unique (drawn from one counter), so the order is total
	// and the replayed L2P is deterministic for a given media state.
	sort.Slice(sectors, func(i, j int) bool { return sectors[i].stamp < sectors[j].stamp })
	for _, s := range sectors {
		if s.stamp > k.unitStamp {
			k.unitStamp = s.stamp
		}
		k.l2p[s.lba] = k.mediaEntry(k.sectorAddr(s.g, s.idx))
	}

	k.seqCounter = maxSeq
	// The system group may hold a torn snapshot; clear it. A failed erase
	// has retired the block and is counted as recycle counts one; a later
	// mount's loadSnapshot reads the bad group as no snapshot.
	sys := k.sysGroup()
	switch err := k.eraseGroup(p, sys); {
	case errors.Is(err, nand.ErrEraseFail), errors.Is(err, nand.ErrWornOut):
		k.Stats.EraseErrors++
		k.Stats.BadBlocks++
	case err != nil && !errors.Is(err, nand.ErrBadBlock):
		return err
	}
	k.Stats.RecoverScanTime += k.env.Now() - scanStart
	return nil
}

// puScan is one PU's scan process and what it found.
type puScan struct {
	proc            *sim.Proc
	fulls, partials []found
	maxSeq          uint64
}

// classify runs classifyGroups over every PU at once and merges the
// results. A PU's groups are contiguous in the group table, so appending
// the per-PU lists in PU order yields group-id order — the order
// noteGroupClosed must see the full groups in, because it feeds the scrub
// patrol.
func (k *Pblk) classify(p *sim.Proc) (fulls, partials []found, maxSeq uint64) {
	perPU := k.geo.BlocksPerPlane
	scans := make([]puScan, k.nPUs)
	for pu := range scans {
		s, groups := &scans[pu], k.groups[pu*perPU:(pu+1)*perPU]
		s.proc = k.env.Go(fmt.Sprintf("pblk.%s.scan%d", k.name, pu), func(sp *sim.Proc) {
			s.fulls, s.partials, s.maxSeq = k.classifyGroups(sp, groups)
		})
	}
	for i := range scans {
		s := &scans[i]
		p.Wait(s.proc.Done())
		fulls = append(fulls, s.fulls...)
		partials = append(partials, s.partials...)
		maxSeq = max(maxSeq, s.maxSeq)
	}
	return fulls, partials, maxSeq
}

// classifyGroups is the classify + close-meta phase over groups, one at a
// time in the order given.
func (k *Pblk) classifyGroups(p *sim.Proc, groups []*group) (fulls, partials []found, maxSeq uint64) {
	for _, g := range groups {
		switch g.state {
		case stSys, stBad:
			continue
		}
		gid, seq, state := k.classifyGroup(p, g)
		switch state {
		case stFree:
			g.state = stFree
			continue
		case stBad:
			g.state = stBad
			k.Stats.BadBlocks++
			continue
		}
		if gid != g.id {
			// Foreign or torn metadata: reclaim the group. A failed erase
			// retires it and is counted as recycle counts one.
			if k.eraseGroup(p, g) == nil {
				g.state = stFree
			} else {
				g.state = stBad
				k.Stats.EraseErrors++
				k.Stats.BadBlocks++
			}
			continue
		}
		g.seq = seq
		if seq > maxSeq {
			maxSeq = seq
		}
		var m metaBufs // kept by found: fresh per group
		if metaSeq, stream, ok := k.readCloseMeta(p, g, &m); ok && metaSeq == seq {
			g.stream = stream
			fulls = append(fulls, found{g: g, seq: seq, lbas: m.lbas, stamps: m.stamps})
		} else {
			partials = append(partials, found{g: g, seq: seq})
		}
	}
	return fulls, partials, maxSeq
}

// classifyGroup reads a group's open mark. state is stFree for erased
// groups, stBad for inaccessible ones, stOpen when a mark exists. A written
// page with an unparseable mark returns gid == -1.
func (k *Pblk) classifyGroup(p *sim.Proc, g *group) (gid int, seq uint64, state groupState) {
	addrs := k.unitAddrs(g, 0)[:1]
	c := k.dev.Do(p, &ocssd.Vector{Op: ocssd.OpRead, Addrs: addrs})
	gid, seq, state = classifyCompletion(c)
	// parseOpenMark extracts values; nothing retains c after this point.
	k.dev.Recycle(c)
	return gid, seq, state
}

// classifyCompletion interprets an open-mark read.
func classifyCompletion(c *ocssd.Completion) (gid int, seq uint64, state groupState) {
	e := c.Errs[0]
	switch {
	case isUnwritten(e):
		return 0, 0, stFree
	case errors.Is(e, nand.ErrBadBlock):
		return 0, 0, stBad
	case e != nil:
		return -1, 0, stOpen
	}
	if c.Data[0] == nil {
		return -1, 0, stOpen
	}
	id, sq, _, ok := parseOpenMark(c.Data[0])
	if !ok {
		return -1, 0, stOpen
	}
	return id, sq, stOpen
}

// padGroupTail pads a partially written group from its watermark to the
// end and writes close metadata when the metadata region is still intact,
// turning the group into a normal closed group for GC.
func (k *Pblk) padGroupTail(p *sim.Proc, g *group, watermark int, lbas []int64, stamps []uint64) error {
	end := k.firstMetaUnit()
	writeMeta := watermark <= end
	if !writeMeta {
		end = k.unitsPerGroup
	}
	fullStamps := make([]uint64, 0, k.dataSectors)
	fullStamps = append(fullStamps, stamps...)
	for unit := watermark; unit < end; unit++ {
		addrs := k.unitAddrs(g, unit)
		oob := make([][]byte, len(addrs))
		stamp := k.nextStamp()
		for i := range oob {
			oob[i] = k.encodeOOB(padLBA, false, stamp)
			if unit < k.firstMetaUnit() {
				fullStamps = append(fullStamps, stamp)
			}
		}
		k.Stats.PaddedSectors += int64(len(addrs))
		if c := k.dev.Do(p, &ocssd.Vector{Op: ocssd.OpWrite, Addrs: addrs, OOB: oob}); c.Failed() {
			// Padding hit a bad spot: retire the group; its mappings are
			// already applied and GC-by-OOB still works for reads.
			k.markSuspectRecovered(g)
			return nil
		}
	}
	if writeMeta {
		full := make([]int64, k.dataSectors)
		for i := range full {
			full[i] = padLBA
		}
		copy(full, lbas)
		g.lbas = full
		g.stamps = fullStamps
		g.state = stOpen // submitCloseMeta flips it to closed on completion
		k.submitCloseMeta(p, g)
		k.waitGroupClosed(p, g)
	}
	return nil
}

// markSuspectRecovered queues a group found damaged during recovery.
func (k *Pblk) markSuspectRecovered(g *group) {
	g.state = stSuspect
	k.suspects.Push(g.id)
}

// waitGroupClosed blocks until submitCloseMeta's completions have flipped
// the group to closed (or suspect), waiting on state-change events rather
// than polling with a sleep loop.
func (k *Pblk) waitGroupClosed(p *sim.Proc, g *group) {
	for g.state == stOpen {
		k.waitStateChange(p)
	}
}

// eraseGroup erases every plane block of g and reports the first failure.
// It counts nothing: what an erase does to Stats differs by caller
// (recovery, GC, the snapshot area), and each keeps its own.
func (k *Pblk) eraseGroup(p *sim.Proc, g *group) error {
	ch, pu := k.fmtr.PUAddr(g.pu)
	ms := k.metaScratches.Get() // its own: several movers can sit in Do at once
	ms.addrs = ms.addrs[:0]
	for pl := 0; pl < k.geo.PlanesPerPU; pl++ {
		ms.addrs = append(ms.addrs, ppa.Addr{Ch: ch, PU: pu, Plane: pl, Block: g.blk})
	}
	ms.vec.Op, ms.vec.Addrs = ocssd.OpErase, ms.addrs
	c := k.dev.Do(p, &ms.vec)
	err := c.FirstErr()
	k.dev.Recycle(c)
	k.putMetaScratch(ms)
	return err
}
