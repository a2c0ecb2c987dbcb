package pblk

import (
	"errors"
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

// rebuildFreeLists reconstructs the per-PU free heaps from group states
// and re-derives the fleet erase total for the GC wear term.
func (k *Pblk) rebuildFreeLists() {
	for i := range k.freePerPU {
		k.freePerPU[i] = k.freePerPU[i][:0]
	}
	k.freeGroups = 0
	k.eraseTotal = 0
	for _, g := range k.groups {
		if g.state != stSys && g.state != stBad {
			k.eraseTotal += int64(g.erases)
		}
		if g.state == stFree {
			k.freePerPU[g.gpu].put(g)
			k.freeGroups++
		}
	}
}

// recountValid recomputes per-group valid sector counts from the L2P.
func (k *Pblk) recountValid() {
	for _, g := range k.groups {
		g.valid = 0
	}
	for _, v := range k.l2p {
		if isMedia(v) {
			k.groupOf(k.mediaAddr(v)).valid++
		}
	}
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
	full   bool
}

// scanRecover performs the two-phase recovery: classify every group as
// free, fully written, or partially written by reading its first and last
// pages; gather fully written groups' FTL logs, then partially written
// groups' per-page OOB (padding them to completion so page pairs become
// readable, paper §4.2.2). Sectors are finally replayed into the L2P in
// global admission-stamp order — groups fill concurrently on different
// lanes AND several groups are open per PU (one per write stream, plus GC
// victims draining), so neither group order nor classification phase
// alone orders overwrites of the same sector correctly.
//
// The classify + close-meta phase keeps one vector read in flight per PU
// (an asynchronous per-PU chain) instead of one serialized group at a
// time across the whole device; classifySequential keeps the serial order
// as the reference a regression test checks the chains' L2P against.
// Either way the virtual time spent is recorded in Stats.RecoverScanTime.
func (k *Pblk) scanRecover(p *sim.Proc) error {
	k.Stats.Recoveries++
	scanStart := k.env.Now()
	var fulls, partials []found
	var maxSeq uint64
	var err error
	if k.cfg.sequentialRecoverScan {
		fulls, partials, maxSeq, err = k.classifySequential(p)
	} else {
		fulls, partials, maxSeq = k.classifyParallel(p)
	}
	if err != nil {
		return err
	}

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
	// unwritten page, then padded so half-written lower/upper pairs become
	// readable.
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
	// The system group may hold a torn snapshot; clear it.
	if err := k.eraseGroupRaw(p, k.sysGroup()); err != nil && !errors.Is(err, nand.ErrBadBlock) {
		return err
	}
	k.Stats.RecoverScanTime += k.env.Now() - scanStart
	return nil
}

// classifySequential is the serial classify + close-meta phase: one group
// at a time across the whole device, in group-id order.
func (k *Pblk) classifySequential(p *sim.Proc) (fulls, partials []found, maxSeq uint64, err error) {
	for _, g := range k.groups {
		switch g.state {
		case stSys, stBad:
			continue
		}
		gid, seq, _, state := k.classifyGroup(p, g)
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
			// Foreign or torn metadata: reclaim the group.
			if err := k.eraseGroupRaw(p, g); err == nil {
				g.state = stFree
			} else {
				g.state = stBad
			}
			continue
		}
		g.seq = seq
		if seq > maxSeq {
			maxSeq = seq
		}
		if metaSeq, stream, lbas, stamps, ok := k.readCloseMeta(p, g); ok && metaSeq == seq {
			g.stream = stream
			fulls = append(fulls, found{g: g, seq: seq, lbas: lbas, stamps: stamps, full: true})
		} else {
			partials = append(partials, found{g: g, seq: seq})
		}
	}
	return fulls, partials, maxSeq, nil
}

// scanResult kinds recorded by the parallel classify chains.
const (
	srNone = iota
	srFull
	srPartial
)

// scanPU is one PU's classify chain: it walks the PU's groups in block
// order with exactly one vector read in flight (classify read, close-meta
// units, or a reclaim erase), recording per-group results. All chains run
// concurrently in virtual time — mount-time recovery scans the device at
// full PU parallelism — and everything executes as Submit callbacks, so
// the scan costs no goroutines.
type scanPU struct {
	st     *scanState
	groups []*group
	gi     int
	cur    *group
	curSeq uint64
	mUnit  int
	mBuf   []byte
}

// scanState is the shared bookkeeping of one parallel classify phase.
type scanState struct {
	k         *Pblk
	remaining int
	done      *sim.Event
	maxSeq    uint64
	results   []struct {
		kind   uint8
		stream uint8
		lbas   []int64
		stamps []uint64
	}
}

// classifyParallel runs the classify + close-meta phase with one chain per
// PU, then assembles the results in group-id order so downstream phases
// see exactly what the sequential scan produces.
func (k *Pblk) classifyParallel(p *sim.Proc) (fulls, partials []found, maxSeq uint64) {
	st := &scanState{k: k, done: k.env.NewEvent()}
	st.results = make([]struct {
		kind   uint8
		stream uint8
		lbas   []int64
		stamps []uint64
	}, len(k.groups))
	perPU := make([][]*group, k.nPUs)
	for _, g := range k.groups {
		switch g.state {
		case stSys, stBad:
			continue
		}
		perPU[g.gpu] = append(perPU[g.gpu], g)
	}
	var chains []*scanPU
	for _, groups := range perPU {
		if len(groups) == 0 {
			continue
		}
		chains = append(chains, &scanPU{st: st, groups: groups})
	}
	st.remaining = len(chains)
	if st.remaining == 0 {
		return nil, nil, 0
	}
	for _, s := range chains {
		s.next()
	}
	p.Wait(st.done)

	for _, g := range k.groups {
		r := &st.results[g.id]
		switch r.kind {
		case srFull:
			g.stream = r.stream
			fulls = append(fulls, found{g: g, seq: g.seq, lbas: r.lbas, stamps: r.stamps, full: true})
		case srPartial:
			partials = append(partials, found{g: g, seq: g.seq})
		}
	}
	return fulls, partials, st.maxSeq
}

// next advances the chain to its next group's classify read, or retires
// the chain.
func (s *scanPU) next() {
	k := s.st.k
	if s.gi >= len(s.groups) {
		s.st.remaining--
		if s.st.remaining == 0 {
			s.st.done.Signal()
		}
		return
	}
	s.cur = s.groups[s.gi]
	s.gi++
	addrs := k.unitAddrs(s.cur, 0)[:1]
	k.dev.Submit(&ocssd.Vector{Op: ocssd.OpRead, Addrs: addrs}, s.onClassify)
}

func (s *scanPU) onClassify(c *ocssd.Completion) {
	k := s.st.k
	g := s.cur
	gid, seq, _, state := classifyCompletion(c)
	k.dev.Recycle(c)
	switch state {
	case stFree:
		g.state = stFree
		s.next()
		return
	case stBad:
		g.state = stBad
		k.Stats.BadBlocks++
		s.next()
		return
	}
	if gid != g.id {
		// Foreign or torn metadata: reclaim the group.
		ch, pu := k.dev.PUAddr(g.gpu)
		addrs := make([]ppa.Addr, k.geo.PlanesPerPU)
		for pl := range addrs {
			addrs[pl] = ppa.Addr{Ch: ch, PU: pu, Plane: pl, Block: g.blk}
		}
		k.dev.Submit(&ocssd.Vector{Op: ocssd.OpErase, Addrs: addrs}, s.onReclaim)
		return
	}
	g.seq = seq
	s.curSeq = seq
	if seq > s.st.maxSeq {
		s.st.maxSeq = seq
	}
	s.mUnit = 0
	need := k.metaUnits * k.unitSectors * k.geo.SectorSize
	if cap(s.mBuf) < need {
		s.mBuf = make([]byte, need)
	}
	s.mBuf = s.mBuf[:need]
	clear(s.mBuf)
	s.submitMeta()
}

func (s *scanPU) onReclaim(c *ocssd.Completion) {
	k := s.st.k
	g := s.cur
	if c.Failed() {
		g.state = stBad
	} else {
		g.erases++
		k.eraseTotal++
		g.state = stFree
	}
	k.dev.Recycle(c)
	s.next()
}

// submitMeta issues the next close-metadata unit read of the current group.
func (s *scanPU) submitMeta() {
	k := s.st.k
	addrs := k.unitAddrs(s.cur, k.firstMetaUnit()+s.mUnit)
	k.dev.Submit(&ocssd.Vector{Op: ocssd.OpRead, Addrs: addrs}, s.onMeta)
}

func (s *scanPU) onMeta(c *ocssd.Completion) {
	k := s.st.k
	g := s.cur
	ss := k.geo.SectorSize
	for i := 0; i < k.unitSectors; i++ {
		if c.Errs[i] != nil {
			// Unreadable metadata: the group recovers as partial.
			k.dev.Recycle(c)
			s.st.results[g.id].kind = srPartial
			s.next()
			return
		}
		if d := c.Data[i]; d != nil {
			copy(s.mBuf[(s.mUnit*k.unitSectors+i)*ss:], d)
		}
	}
	k.dev.Recycle(c)
	s.mUnit++
	if s.mUnit < k.metaUnits {
		s.submitMeta()
		return
	}
	r := &s.st.results[g.id]
	if seq, stream, lbas, stamps, ok := k.parseCloseMeta(s.mBuf); ok && seq == s.curSeq {
		r.kind = srFull
		r.stream = stream
		r.lbas = lbas
		r.stamps = stamps
	} else {
		r.kind = srPartial
	}
	s.next()
}

// classifyGroup reads a group's open mark. state is stFree for erased
// groups, stBad for inaccessible ones, stOpen when a mark exists. A written
// page with an unparseable mark returns gid == -1.
func (k *Pblk) classifyGroup(p *sim.Proc, g *group) (gid int, seq uint64, prev int64, state groupState) {
	addrs := k.unitAddrs(g, 0)[:1]
	c := k.dev.Do(p, &ocssd.Vector{Op: ocssd.OpRead, Addrs: addrs})
	return classifyCompletion(c)
}

// classifyCompletion interprets an open-mark read.
func classifyCompletion(c *ocssd.Completion) (gid int, seq uint64, prev int64, state groupState) {
	e := c.Errs[0]
	switch {
	case isUnwritten(e):
		return 0, 0, 0, stFree
	case errors.Is(e, nand.ErrBadBlock):
		return 0, 0, 0, stBad
	case errors.Is(e, nand.ErrPairIncomplete):
		// Mark exists but pair-unreadable; extremely early crash. Treat as
		// unparseable so the group is reclaimed.
		return -1, 0, 0, stOpen
	case e != nil:
		return -1, 0, 0, stOpen
	}
	if c.Data[0] == nil {
		return -1, 0, 0, stOpen
	}
	id, sq, pv, ok := parseOpenMark(c.Data[0])
	if !ok {
		return -1, 0, 0, stOpen
	}
	return id, sq, pv, stOpen
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
		g.unitDone = make([]bool, k.unitsPerGroup)
		g.unitFinal = make([]bool, k.unitsPerGroup)
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
	k.suspects = append(k.suspects, g.id)
}

// waitGroupClosed blocks until submitCloseMeta's completions have flipped
// the group to closed (or suspect), waiting on state-change events rather
// than polling with a sleep loop.
func (k *Pblk) waitGroupClosed(p *sim.Proc, g *group) {
	for g.state == stOpen {
		k.waitStateChange(p)
	}
}

// eraseGroupRaw erases all plane blocks of a group directly.
func (k *Pblk) eraseGroupRaw(p *sim.Proc, g *group) error {
	ch, pu := k.dev.PUAddr(g.gpu)
	addrs := make([]ppa.Addr, k.geo.PlanesPerPU)
	for pl := range addrs {
		addrs[pl] = ppa.Addr{Ch: ch, PU: pu, Plane: pl, Block: g.blk}
	}
	c := k.dev.Do(p, &ocssd.Vector{Op: ocssd.OpErase, Addrs: addrs})
	if c.Failed() {
		return c.FirstErr()
	}
	g.erases++
	k.eraseTotal++
	return nil
}
