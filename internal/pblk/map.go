package pblk

import (
	"repro/internal/ppa"
	"repro/internal/sim"
)

// groupOf returns the group containing address a.
func (k *Pblk) groupOf(a ppa.Addr) *group {
	return k.groupAt(k.fmtr.PUIndex(a), a.Block)
}

// groupAt returns the group of block blk on PU pu: the one place the group
// table's layout is written out.
func (k *Pblk) groupAt(pu, blk int) *group {
	return k.groups[pu*k.geo.BlocksPerPlane+blk]
}

// unitAddrs lists the sector addresses of one write unit: page `unit` on
// every plane of the group's PU, all sectors, plane-major. This is the
// paper's multi-plane programming chunk (e.g. 16 KB pages with quad-plane
// programming give 64 KB units).
func (k *Pblk) unitAddrs(g *group, unit int) []ppa.Addr {
	return k.unitAddrsInto(make([]ppa.Addr, 0, k.unitSectors), g, unit)
}

// unitAddrsInto fills dst (reusing its capacity) with one unit's sector
// addresses; the allocation-free form for the pooled write path.
func (k *Pblk) unitAddrsInto(dst []ppa.Addr, g *group, unit int) []ppa.Addr {
	dst = dst[:0]
	ch, pu := k.fmtr.PUAddr(g.pu)
	for pl := 0; pl < k.geo.PlanesPerPU; pl++ {
		for s := 0; s < k.geo.SectorsPerPage; s++ {
			dst = append(dst, ppa.Addr{Ch: ch, PU: pu, Plane: pl, Block: g.blk, Page: unit, Sector: s})
		}
	}
	return dst
}

// firstMetaUnit returns the unit index where close metadata begins.
func (k *Pblk) firstMetaUnit() int { return k.unitsPerGroup - k.metaUnits }

// takeFreeGroup removes and returns the free group at the head of pu's
// free list, or nil. The list is FIFO, as kernel pblk's free_list is: a
// recycled group joins the tail, so every free group is used before any is
// reused, which spreads erases over a PU's blocks without counting them.
func (k *Pblk) takeFreeGroup(pu int) *group {
	if k.freePerPU[pu].Len() == 0 {
		return nil
	}
	id := k.freePerPU[pu].Pop()
	k.freeGroups--
	k.rl.update(k.freeGroups)
	k.maybeKickGC()
	return k.groups[id]
}

// returnFreeGroup places an erased group at the tail of its PU's free list.
func (k *Pblk) returnFreeGroup(g *group) {
	g.state = stFree
	g.stream = streamUser
	g.nextUnit = 0
	g.valid = 0
	g.gcPending = 0
	g.closedAt = 0
	g.retryHints = 0
	g.scrubQueued = false
	clear(g.pending)
	k.freePerPU[g.pu].Push(g.id)
	k.freeGroups++
	k.rl.update(k.freeGroups)
	k.rb.signalSpace() // user admission may have been gated on free blocks
	if k.scrubOn() {
		k.scrubKick.Signal() // space recovered: a standing-down patrol may resume
	}
	k.notifyState()
}

// openGroupOn allocates and opens a group for stream st of slot s,
// rotating through the lane's PU range: when the current PU has no free
// group, the next PU in the range takes over (paper §4.2.1's
// block-granularity PU rotation). Both streams rotate over the same PUs —
// stream separation is per block, not per PU — so a lane may hold a user
// group and a GC group on the same PU. When the lane's whole range is dry
// it immediately borrows a group from any PU rather than stalling — GC
// moves drain through the lane writers, so sleeping here while free
// groups exist elsewhere could wedge the victim drain. It blocks (only
// this lane) when the device has no free group at all.
func (k *Pblk) openGroupOn(p *sim.Proc, s *slot, st int) *group {
	for {
		span := s.puHi - s.puLo
		for i := 0; i < span; i++ {
			pu := s.puLo + (s.curPU-s.puLo+i)%span
			if g := k.takeFreeGroup(pu); g != nil {
				s.curPU = pu
				k.openGroup(g, st)
				return g
			}
		}
		for pu := range k.freePerPU {
			if g := k.takeFreeGroup(pu); g != nil {
				k.openGroup(g, st)
				return g
			}
		}
		// No free group anywhere: wait for GC to recycle one.
		k.maybeKickGC()
		k.rb.waitSpace(p)
		if k.stopping {
			return nil
		}
	}
}

// openGroup transitions a free group to open for a write stream and
// submits its open mark (paper §4.2.2: first page stores a sequence
// number and a reference to the previously opened block). The mark is
// submitted asynchronously; the per-PU FIFO guarantees it lands before
// the group's data.
func (k *Pblk) openGroup(g *group, st int) {
	k.seqCounter++
	g.state = stOpen
	// The retention clock starts now: the group's oldest data is at most
	// this old, so aging from open time (not close time) keeps the scrub
	// deadline conservative for slowly-filling groups.
	g.closedAt = int64(k.env.Now())
	g.stream = uint8(st)
	g.seq = k.seqCounter
	g.prev = int64(k.lastOpened)
	k.lastOpened = g.id
	g.nextUnit = 1
	g.lbas, g.stamps = k.lbaLists.Get(), k.stampLists.Get()
	if g.pending == nil {
		g.pending = make([][]uint64, k.unitsPerGroup)
	}
	ms := k.metaScratches.Get()
	ms.close = false
	stamp := k.nextStamp()
	ms.prep(g, 0, stamp)
	mark := ms.payload[:k.geo.SectorSize]
	k.encodeOpenMarkInto(mark, g)
	ms.data[0] = mark
	ms.submit()
}

// advanceSlotPU moves a lane to its next PU after a block fills (paper:
// "when a block fills up on PU0, then that PU becomes inactive and PU1
// takes over as the active PU").
func (s *slot) advance() {
	s.curPU++
	if s.curPU >= s.puHi {
		s.curPU = s.puLo
	}
}

// drainOpenGroups pads and closes every lane's open groups on both
// streams; used by SetActivePUs and Shutdown so all data groups carry
// close metadata.
func (k *Pblk) drainOpenGroups(p *sim.Proc) {
	for _, s := range k.slots {
		for st := range s.grp {
			if s.grp[st] == nil {
				continue
			}
			k.padAndClose(p, s, st)
		}
	}
}

// padAndClose fills the remainder of a lane's open group with padding and
// writes its close metadata, blocking until submitted. A write error
// completing during a pad can detach the group from the lane; the fold
// then stops and closes nothing.
func (k *Pblk) padAndClose(p *sim.Proc, s *slot, st int) {
	g := s.grp[st]
	for s.grp[st] == g && g.nextUnit < k.firstMetaUnit() {
		k.padUnit(p, s, g)
	}
	if s.grp[st] == g {
		k.closeGroup(p, s, st)
	}
}

// closeGroup writes the group's close metadata and detaches it from the
// lane's stream. The group becomes GC-eligible once the metadata is
// programmed.
func (k *Pblk) closeGroup(p *sim.Proc, s *slot, st int) {
	g := s.grp[st]
	k.setLaneGroup(s, st, nil)
	s.advance()
	k.submitCloseMeta(p, g)
}
