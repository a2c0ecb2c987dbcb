package pblk

import (
	"repro/internal/ppa"
	"repro/internal/sim"
)

// groupOf returns the group containing address a. The group table is
// indexed by partition-relative PU, so the device-global PU of a is
// translated through the media view first.
func (k *Pblk) groupOf(a ppa.Addr) *group {
	return k.groupAt(k.fmtr.GlobalPU(a), a.Block)
}

// groupAt returns the group of block blk on device-global PU gpu: the one
// place the group table's layout is written out.
func (k *Pblk) groupAt(gpu, blk int) *group {
	return k.groups[k.dev.RelativePU(gpu)*k.geo.BlocksPerPlane+blk]
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
	ch, pu := k.dev.PUAddr(g.gpu)
	for pl := 0; pl < k.geo.PlanesPerPU; pl++ {
		for s := 0; s < k.geo.SectorsPerPage; s++ {
			dst = append(dst, ppa.Addr{Ch: ch, PU: pu, Plane: pl, Block: g.blk, Page: unit, Sector: s})
		}
	}
	return dst
}

// firstMetaUnit returns the unit index where close metadata begins.
func (k *Pblk) firstMetaUnit() int { return k.unitsPerGroup - k.metaUnits }

// freeItem is one entry of a per-PU free-group heap. The erase count is
// frozen at push time — it only changes while the group is allocated — so
// the heap order stays valid without sift-downs on foreign updates.
type freeItem struct {
	erases int
	id     int
}

// freeHeap is a min-heap of free groups keyed on erase count (dynamic
// wear leveling, paper §2.3 lesson 4) with the group id as a
// deterministic tie-break. It replaces the O(n) min-erase scan that ran
// on every group allocation and GC recycle. The sift routines are
// hand-rolled (same element placement as container/heap) because the
// stdlib interface boxes every pushed and popped freeItem onto the heap —
// two allocations per group cycle on the hot recycle path.
type freeHeap []freeItem

func (h freeHeap) less(i, j int) bool {
	if h[i].erases != h[j].erases {
		return h[i].erases < h[j].erases
	}
	return h[i].id < h[j].id
}

func (h *freeHeap) put(g *group) {
	*h = append(*h, freeItem{erases: g.erases, id: g.id})
	h.up(len(*h) - 1)
}

func (h *freeHeap) take() (int, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	v := (*h)[0]
	n := len(*h) - 1
	(*h)[0], (*h)[n] = (*h)[n], freeItem{}
	*h = (*h)[:n]
	if n > 0 {
		h.down(0)
	}
	return v.id, true
}

func (h freeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h freeHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// takeFreeGroup removes and returns the free group with the fewest erase
// cycles on gpu, or nil.
func (k *Pblk) takeFreeGroup(gpu int) *group {
	id, ok := k.freePerPU[gpu].take()
	if !ok {
		return nil
	}
	k.freeGroups--
	k.rl.update(k.freeGroups)
	k.maybeKickGC()
	return k.groups[id]
}

// returnFreeGroup places an erased group back on its PU's free heap.
func (k *Pblk) returnFreeGroup(g *group) {
	g.state = stFree
	g.stream = streamUser
	g.nextUnit = 0
	// Truncate rather than drop the per-group slices: the next openGroup
	// on this group reuses their backing arrays.
	g.lbas = g.lbas[:0]
	g.stamps = g.stamps[:0]
	g.valid = 0
	g.gcPending = 0
	g.closedAt = 0
	g.retryHints = 0
	g.scrubQueued = false
	// g.gcDone is deliberately kept: it is reused (via Reset) across the
	// group's GC cycles and is always fired between cycles, so a stray
	// Signal from releaseGCRef before the next drain re-arms it is a no-op.
	clear(g.pending)
	k.freePerPU[g.gpu].put(g)
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
			gpu := s.puLo + (s.curPU-s.puLo+i)%span
			if g := k.takeFreeGroup(gpu); g != nil {
				s.curPU = gpu
				k.openGroup(g, st)
				return g
			}
		}
		for gpu := range k.freePerPU {
			if g := k.takeFreeGroup(gpu); g != nil {
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
	if cap(g.lbas) < k.dataSectors {
		g.lbas = make([]int64, 0, k.dataSectors)
	} else {
		g.lbas = g.lbas[:0]
	}
	if cap(g.stamps) < k.dataSectors {
		g.stamps = make([]uint64, 0, k.dataSectors)
	} else {
		g.stamps = g.stamps[:0]
	}
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
