package pblk

import (
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// The write path behind the ring buffer (paper §4.2.1, consumers): the
// dispatcher cuts admitted entries into write units, one lane writer per
// active PU programs them, and completions free the ring tail. The ring
// has two producers: user sectors enter through the admission pump in
// queue.go, GC moves through reserveGC below.

// copySector stages one sector payload in a pooled buffer; the buffer
// returns to the pool when the ring frees its entry.
func (k *Pblk) copySector(src []byte) []byte {
	b := k.dataBufs.Get()
	copy(b, src)
	return b
}

// releaseEntryData recycles a freed ring entry's payload buffer. GC moves
// carry device-owned page slices, never pooled buffers, so only user
// payloads return to the pool.
func (k *Pblk) releaseEntryData(e *rbEntry) {
	if !e.isGC && e.data != nil {
		k.dataBufs.Put(e.data)
	}
}

// installCacheMapping points the L2P at a fresh buffer entry, invalidating
// whatever the sector mapped to before.
func (k *Pblk) installCacheMapping(lba int64, pos uint64) {
	old := k.l2p[lba]
	if isMedia(old) {
		k.groupOfEntry(old).valid--
	}
	k.l2p[lba] = cacheEntry(pos)
}

// emergencyReserve is the free-group floor kept for GC and lane turnover:
// enough groups to place the already-admitted ring backlog (sectors
// acknowledged before the floor was hit still need groups to land in)
// plus slack for GC coverage and erase turnaround. It is deliberately a
// small constant, not per-lane: when free space is scarce the dispatcher
// routes GC chunks only onto lanes that already hold an open GC-stream
// group (see gcLaneFor), so uncovered lanes need no reservation.
func (k *Pblk) emergencyReserve() int {
	backlogGroups := (k.rb.capacity() + k.dataSectors - 1) / k.dataSectors
	return backlogGroups + 4
}

// setLaneGroup attaches (or detaches) an open group to a lane's stream,
// maintaining the GC-coverage count behind emergencyReserve.
func (k *Pblk) setLaneGroup(s *slot, st int, g *group) {
	if st == streamGC {
		if s.grp[st] == nil && g != nil {
			k.gcOpenLanes++
		} else if s.grp[st] != nil && g == nil {
			k.gcOpenLanes--
		}
	}
	s.grp[st] = g
}

// reserveGC blocks until the ring has space for a GC entry; GC competes
// for raw space but is never throttled by the limiter. Unlike user
// admission it does NOT pause during a lane rebuild: the rebuild's own
// flush may need a lane to open a fresh group, which can require GC to
// recycle one, which requires admitting its moves here — gating GC on
// the rebuild would close that loop into a deadlock. Moves admitted
// mid-rebuild land on the quiescing lanes (which drain them) or are
// migrated to the new lane set with the other leftovers.
func (k *Pblk) reserveGC(p *sim.Proc) {
	for !k.stopping {
		if k.rb.free() >= 1 {
			return
		}
		k.kickWriters()
		k.rb.waitSpace(p)
	}
}

// trimNow drops the mappings of a validated range.
func (k *Pblk) trimNow(off, length int64) error {
	if k.stopping {
		return ErrStopped
	}
	ss := int64(k.geo.SectorSize)
	for lba := off / ss; lba < (off+length)/ss; lba++ {
		v := k.l2p[lba]
		if isMedia(v) {
			k.groupOfEntry(v).valid--
		}
		k.l2p[lba] = l2pUnmapped
	}
	k.maybeKickGC()
	return nil
}

// ---- dispatcher ----

// chunk is one stream-homogeneous slice of the ring handed to a lane: up
// to a write unit of positions, all belonging to the same write stream.
// Entries carry their own admission stamps (drawn at produce), so chunks
// of different streams may be cut and programmed out of ring order —
// recovery replays sectors by stamp, and a buffered overwrite always
// replays after the version it superseded.
type chunk struct {
	stream int
	poss   []uint64
}

// dispatch scans newly produced ring entries into per-stream pending
// lists, then shards each stream across the lane queues in
// write-unit-sized chunks, round-robin over the active lanes (paper
// §4.2.1: incoming I/Os are striped across active PUs at page
// granularity), waking each lane it feeds. A trailing partial chunk is
// held back — padding it would multiply write amplification — until a
// flush barrier, stop, lane rebuild, or ring-full wedge needs it on
// media. dispatch runs in simulation context and never blocks, so
// completions may call it.
func (k *Pblk) dispatch() {
	if len(k.slots) == 0 {
		return
	}
	for k.rb.disp < k.rb.head {
		e := k.rb.at(k.rb.disp)
		st := k.streamOf(e)
		k.pend[st] = append(k.pend[st], k.rb.disp)
		k.rb.disp++
	}
	for st := 0; st < numStreams; st++ {
		for len(k.pend[st]) > 0 {
			n := k.unitSectors
			if len(k.pend[st]) < n {
				if !k.forceDispatch(st) {
					break
				}
				n = len(k.pend[st])
			}
			poss := append(k.possLists.Get(), k.pend[st][:n]...)
			if len(k.pend[st]) == n {
				k.pend[st] = k.pend[st][:0]
			} else {
				rem := copy(k.pend[st], k.pend[st][n:])
				k.pend[st] = k.pend[st][:rem]
			}
			var s *slot
			if st == streamGC {
				s = k.gcLaneFor()
			} else {
				s = k.slots[k.rrNext[st]%len(k.slots)]
				k.rrNext[st] = (k.rrNext[st] + 1) % len(k.slots)
			}
			s.q[st].Push(chunk{stream: st, poss: poss})
			s.qSectors[st] += n
			if d := s.pendingSectors(); d > s.peakDepth {
				s.peakDepth = d
			}
			s.wake()
		}
	}
}

// gcLaneFor picks the lane for the next GC-stream chunk. While free
// groups are plentiful, plain round-robin — every lane opens a GC group
// and victim drains use the full lane parallelism. Under scarcity, GC
// chunks are routed only onto lanes that already hold an open GC-stream
// group: opening one per lane is exactly what a nearly-full device cannot
// afford, and a chunk parked on a group-less lane at zero free groups
// would wedge its victim's drain (and with it the erases that create free
// space). Coverage therefore grows only while the pool can pay for it and
// GC funnels through the covered lanes otherwise.
func (k *Pblk) gcLaneFor() *slot {
	n := len(k.slots)
	uncovered := n - k.gcOpenLanes
	scarce := k.freeGroups <= k.emergencyReserve()+uncovered
	start := k.rrNext[streamGC]
	k.rrNext[streamGC] = (start + 1) % n
	if !scarce || k.gcOpenLanes == 0 {
		return k.slots[start%n]
	}
	for i := 0; i < n; i++ {
		if s := k.slots[(start+i)%n]; s.grp[streamGC] != nil {
			k.rrNext[streamGC] = (start + i + 1) % n
			return s
		}
	}
	return k.slots[start%n]
}

// forceDispatch reports whether a partial (sub-unit) chunk of stream st
// must be handed to a lane now: the newest flush barrier covers the
// stream's oldest pending entry (barriers are pushed in ring order, so a
// flush queued behind another forces out its own data too), the datapath
// is draining for stop/rebuild, or the ring is completely full with this stream's pending
// front as the tail blocker (the only way to free space is to write it).
func (k *Pblk) forceDispatch(st int) bool {
	if k.stopping || k.rebuilding {
		return true
	}
	if k.flushes.Len() > 0 && k.flushes.At(k.flushes.Len()-1).pos >= k.pend[st][0] {
		return true
	}
	return k.rb.free() == 0 && k.pend[st][0] == k.rb.tail
}

// kickWriters moves any dispatchable entries onto lane queues (dispatch
// wakes the lanes it feeds) and, when a flush barrier, drain, or ring-full
// wedge is in progress, additionally wakes every lane with flush or drain
// work. The full-lane scan runs only in those states — the common
// produce/complete path costs one dispatch call.
func (k *Pblk) kickWriters() {
	k.dispatch()
	if k.flushes.Len() == 0 && !k.stopping && !k.rebuilding && k.rb.free() > 0 {
		return
	}
	for _, s := range k.slots {
		// Waking a lane with nothing to do would only burn a scheduler
		// round trip; a stopping lane is woken to exit. A stale group is not
		// this scan's to announce: the scrubber marks it before it wakes
		// the lane (scrub.go).
		if k.stopping || s.quit || k.laneNext(s) == laneWrite {
			s.wake()
		}
	}
}

// laneWork is what a lane writer does next.
type laneWork int

const (
	laneIdle      laneWork = iota // park, or exit when stopping
	laneWrite                     // form and submit a write unit
	laneFoldStale                 // pad-close a stale open group
)

// laneNext is the lane writer's scheduling decision, the one statement of
// when a lane has work: laneWriter acts on it and kickWriters wakes by it.
func (k *Pblk) laneNext(s *slot) laneWork {
	pending := s.pendingSectors()
	switch {
	case pending >= k.unitSectors,
		k.laneFlushPending(s),
		k.laneTailBlocked(s),
		pending > 0 && s.quit,
		s.retry.Len() > 0 && k.rb.free() <= k.rb.capacity()/4:
		return laneWrite
	case k.laneStaleOpen(s):
		return laneFoldStale
	}
	return laneIdle
}

// laneFlushPending reports whether lane s must submit (and pad) now to let
// the open flush barriers complete: it holds write-failed sectors
// awaiting resubmission, or either stream queue's front sits at or below
// the newest barrier. Lanes whose queued data all arrived after it are not
// covered — the flush does not pad them (paper §4.2.1 pads only what the
// flush forces out).
func (k *Pblk) laneFlushPending(s *slot) bool {
	if k.flushes.Len() == 0 {
		return false
	}
	if s.retry.Len() > 0 {
		return true
	}
	for st := range s.q {
		if s.q[st].Len() > 0 && s.q[st].Front().poss[0] <= k.flushes.At(k.flushes.Len()-1).pos {
			return true
		}
	}
	return false
}

// laneTailBlocked reports whether the ring is completely full and this
// lane holds the tail entry in a queued — possibly partial — chunk. No
// producer can make progress until the lane writes it out (padding if it
// is sub-unit), so the lane must not hold it back waiting for more data.
func (k *Pblk) laneTailBlocked(s *slot) bool {
	if k.rb.free() > 0 {
		return false
	}
	for st := range s.q {
		if s.q[st].Len() > 0 && s.q[st].Front().poss[0] == k.rb.tail {
			return true
		}
	}
	return false
}

// ---- per-lane writer ----

// laneWriter is one of pblk's per-lane writer processes (the sharded
// replacement for the paper's single write thread, §4.2.1): it forms
// write units from its own dispatch queues — retried sectors first, then
// the stream whose queue front is oldest in the ring — maps them onto its
// PU rotation, and submits vector writes. Blocking on this lane's PU
// semaphore or on a free-group wait never stalls sibling lanes.
func (k *Pblk) laneWriter(p *sim.Proc, s *slot) {
	for {
		if k.crashed {
			return
		}
		switch k.laneNext(s) {
		case laneWrite:
			k.writeUnitOn(p, s)
		case laneFoldStale:
			k.closeStaleOpen(p, s)
		default:
			if k.stopping || s.quit {
				return
			}
			k.laneWait(p, s)
		}
		if (k.stopping || s.quit) && s.pendingSectors() == 0 {
			return
		}
	}
}

// laneWait parks the writer until its lane is kicked. The kick event is
// re-armed across cycles; the lane writer is its only waiter.
func (k *Pblk) laneWait(p *sim.Proc, s *slot) {
	s.kick.Rearm()
	s.waits++
	p.Wait(s.kick)
}

// nextChunk removes the lane's most urgent chunk: retries first (§4.2.3),
// then whichever stream's queue front sits lowest in the ring — draining
// oldest-first keeps the global tail moving, since the tail stops at the
// oldest unprogrammed entry regardless of stream.
func (s *slot) nextChunk() (chunk, bool) {
	if s.retry.Len() > 0 {
		return s.retry.Pop(), true
	}
	st := -1
	for i := range s.q {
		if s.q[i].Len() > 0 && (st < 0 || s.q[i].Front().poss[0] < s.q[st].Front().poss[0]) {
			st = i
		}
	}
	if st < 0 {
		return chunk{}, false
	}
	c := s.q[st].Pop()
	s.qSectors[st] -= len(c.poss)
	return c, true
}

// putPoss returns a ring-position list to its pool. Lists flow dispatch →
// chunk → writeUnitOn (recycled there) and writeUnitOn → group.pending →
// finalizeUnit (recycled there).
func (k *Pblk) putPoss(p []uint64) {
	if p == nil {
		return
	}
	k.possLists.Put(p[:0])
}

// unitScratch is the pooled context of one vector write: the Vector, its
// address/data/OOB slices, a per-sector OOB arena, and the bound
// completion callback — so a steady-state unit submission allocates only
// its pending-positions list.
type unitScratch struct {
	k        *Pblk
	g        *group
	unit     int
	s        *slot
	vec      ocssd.Vector
	addrs    []ppa.Addr
	data     [][]byte
	oob      [][]byte
	oobArena []byte
	cbFn     func(*ocssd.Completion)
}

// prep sizes the scratch for one unit of n sectors on group g.
func (u *unitScratch) prep(k *Pblk, s *slot, g *group, unit int) {
	u.g, u.s, u.unit = g, s, unit
	u.addrs = k.unitAddrsInto(u.addrs, g, unit)
	n := len(u.addrs)
	if cap(u.data) < n {
		u.data = make([][]byte, n)
		u.oob = make([][]byte, n)
		u.oobArena = make([]byte, n*oobBytes)
	}
	u.data = u.data[:n]
	u.oob = u.oob[:n]
	for i := range u.data {
		u.data[i] = nil
		u.oob[i] = u.oobArena[i*oobBytes : (i+1)*oobBytes]
	}
}

// submit issues the staged unit; the bound callback releases the lane
// semaphore, runs completion handling, and recycles scratch + completion.
func (u *unitScratch) submit() {
	u.vec.Op = ocssd.OpWrite
	u.vec.Addrs = u.addrs
	u.vec.Data = u.data
	u.vec.OOB = u.oob
	u.k.dev.Submit(&u.vec, u.cbFn)
}

func (u *unitScratch) onProgrammed(c *ocssd.Completion) {
	k := u.k
	u.s.sem.Release()
	k.onUnitProgrammed(u.g, u.unit, c)
	k.dev.Recycle(c)
	u.g, u.s = nil, nil
	u.vec.Addrs, u.vec.Data, u.vec.OOB = nil, nil, nil
	k.unitScratches.Put(u)
}

// writeUnitOn forms one write unit on lane s from the next retry or
// queued chunk (plus padding under flush or drain pressure), maps it onto
// the open group of the chunk's stream, and submits the vector write. One
// chunk per unit: chunks are stream-homogeneous, so a unit never mixes
// user data with GC rewrites.
func (k *Pblk) writeUnitOn(p *sim.Proc, s *slot) {
	s.acquire(p)
	if k.crashed || (k.stopping && s.pendingSectors() == 0) {
		s.sem.Release()
		return
	}
	c, ok := s.nextChunk()
	if !ok {
		s.sem.Release()
		return
	}
	st := c.stream
	if s.grp[st] == nil {
		// At absolute free-space exhaustion, stream separation yields to
		// forward progress: borrow the lane's other open group, or shed
		// the chunk to a lane that still has a group open, instead of
		// blocking on an allocation only a drained victim could satisfy.
		if other := k.borrowStream(s, st); k.freeGroups <= 2 && other >= 0 {
			st = other
		} else if t := k.shedTargetAtExhaustion(s, st); t != nil {
			t.retry.Push(c)
			if d := t.pendingSectors(); d > t.peakDepth {
				t.peakDepth = d
			}
			t.wake()
			s.sem.Release()
			return
		} else {
			k.setLaneGroup(s, st, k.openGroupOn(p, s, st))
			if s.grp[st] == nil { // stopping
				// Put the chunk back so a later drain can still write it.
				s.retry.PushFront(c)
				s.sem.Release()
				return
			}
		}
	}
	g := s.grp[st]
	unit := g.nextUnit
	g.nextUnit++
	u := k.unitScratches.Get()
	u.prep(k, s, g, unit)
	poss := k.possLists.Get()
	for i := range u.addrs {
		if i >= len(c.poss) {
			// Padding (paper: "pblk adds padding before the write
			// command is sent to the device").
			stamp := k.nextStamp()
			k.encodeOOBInto(u.oob[i], padLBA, false, stamp)
			g.lbas = append(g.lbas, padLBA)
			g.stamps = append(g.stamps, stamp)
			k.Stats.PaddedSectors++
			s.padded++
			continue
		}
		e := k.rb.at(c.poss[i])
		e.state = esSubmitted
		e.ppa = k.fmtr.Encode(u.addrs[i])
		u.data[i] = e.data
		k.encodeOOBInto(u.oob[i], e.lba, true, e.stamp)
		g.lbas = append(g.lbas, e.lba)
		g.stamps = append(g.stamps, e.stamp)
		poss = append(poss, e.pos)
	}
	g.pending[unit] = poss
	k.putPoss(c.poss)
	s.unitsWritten++
	u.submit()
	if g.nextUnit == k.firstMetaUnit() {
		k.closeGroup(p, s, st)
	}
}

// shedTargetAtExhaustion returns another lane that can absorb a chunk of
// stream st when the free-group pool is empty: preferably one with the
// stream's own group open, otherwise any lane with any open group (it
// will borrow). nil when free groups remain (the caller should allocate
// normally) or when no lane in the system holds an open group.
func (k *Pblk) shedTargetAtExhaustion(s *slot, st int) *slot {
	if k.freeGroups > 0 {
		return nil
	}
	var any *slot
	for _, t := range k.slots {
		if t == s {
			continue
		}
		if t.grp[st] != nil {
			return t
		}
		if any == nil {
			for _, g := range t.grp {
				if g != nil {
					any = t
					break
				}
			}
		}
	}
	return any
}

// borrowStream returns another stream of lane s with an open group, or -1.
// Used at free-space exhaustion, where stream separation yields to forward
// progress.
func (k *Pblk) borrowStream(s *slot, st int) int {
	for o := 0; o < numStreams; o++ {
		if o != st && s.grp[o] != nil {
			return o
		}
	}
	return -1
}

// laneStaleOpen reports whether one of the lane's open groups has aged
// past the scrub retention threshold: its data decays in place and the
// patrol cannot reach it until it closes.
func (k *Pblk) laneStaleOpen(s *slot) bool {
	if !k.scrubOn() || k.stopping || k.crashed {
		return false
	}
	now := int64(k.env.Now())
	for _, g := range s.grp {
		if g != nil && k.openStale(g, now) {
			return true
		}
	}
	return false
}

// closeStaleOpen folds the lane's stale open groups closed so the scrub
// patrol can refresh their data: groups holding data are padded out and
// closed (keeping their open-time retention stamp, so they come due
// immediately); a group holding only its open mark has nothing at risk
// and just restarts its clock.
func (k *Pblk) closeStaleOpen(p *sim.Proc, s *slot) {
	now := int64(k.env.Now())
	for st := range s.grp {
		g := s.grp[st]
		if g == nil || !k.openStale(g, now) {
			continue
		}
		if g.nextUnit <= 1 {
			g.closedAt = now
			g.scrubQueued = false
			continue
		}
		k.padAndClose(p, s, st)
	}
}

// padUnit writes one all-padding unit onto group g of lane s, charging
// the lane's telemetry.
func (k *Pblk) padUnit(p *sim.Proc, s *slot, g *group) {
	unit := g.nextUnit
	g.nextUnit++
	u := k.unitScratches.Get()
	u.prep(k, s, g, unit)
	stamp := k.nextStamp()
	for i := range u.oob {
		k.encodeOOBInto(u.oob[i], padLBA, false, stamp)
		g.lbas = append(g.lbas, padLBA)
		g.stamps = append(g.stamps, stamp)
	}
	n := int64(len(u.addrs))
	k.Stats.PaddedSectors += n
	s.padded += n
	s.acquire(p)
	u.submit()
}

// onUnitProgrammed runs at vector-write completion: handle per-sector
// failures, finalize the unit, advance the ring tail, and complete
// satisfied flushes. It runs in scheduler context and must not block.
func (k *Pblk) onUnitProgrammed(g *group, unit int, c *ocssd.Completion) {
	if c.Failed() {
		k.handleWriteError(g, unit, c)
	}
	k.finalizeUnit(g, unit)
	k.rb.advanceTail()
	k.checkFlushes()
	k.notifyState()
}

// finalizeUnit finalizes the entries of a programmed unit: until its
// program completes the L2P points into the ring buffer, and reads are
// served from there (paper §4.2.1).
func (k *Pblk) finalizeUnit(g *group, unit int) {
	for _, pos := range g.pending[unit] {
		k.finalizeEntry(g, k.rb.at(pos))
	}
	k.putPoss(g.pending[unit])
	g.pending[unit] = nil
}

// finalizeEntry moves one buffer entry of group g to its terminal state:
// if the L2P still points at it, install the media mapping and count the
// sector valid in g; otherwise the written sector is already garbage.
func (k *Pblk) finalizeEntry(g *group, e *rbEntry) {
	if e.state != esSubmitted {
		return
	}
	if k.entryIsCurrent(e) {
		k.l2p[e.lba] = e.ppa | l2pMediaBit
		g.valid++
	}
	k.releaseGCRef(e)
	e.state = esDone
}

// releaseGCRef credits a completed GC move back to its victim group.
func (k *Pblk) releaseGCRef(e *rbEntry) {
	if e.origin < 0 {
		return
	}
	og := k.groups[e.origin]
	e.origin = -1
	og.gcPending--
	if og.gcPending == 0 && og.gcDone != nil {
		og.gcDone.Signal()
	}
}

// checkFlushes completes flush requests whose barrier the tail has passed.
func (k *Pblk) checkFlushes() {
	for k.flushes.Len() > 0 && k.rb.tail > k.flushes.Front().pos {
		ev := k.flushes.Pop().ev
		ev.Signal()
		// Signal extracted the waiters, so the event can be re-armed and go
		// straight back to the pool.
		ev.Reset()
		k.events.Put(ev)
	}
	if k.flushes.Len() > 0 {
		// Wake the covered lanes: padding may be required to let the tail
		// progress past the barrier.
		k.kickWriters()
	}
}

// handleWriteError implements §4.2.3: failed sectors are remapped and
// re-submitted ahead of buffered data on the lane covering the failed PU;
// the block is marked suspect, drained by priority GC, and retired.
func (k *Pblk) handleWriteError(g *group, unit int, c *ocssd.Completion) {
	poss := g.pending[unit]
	// Map failed vector indices back to ring entries via each entry's
	// position in the unit's plane-major address layout.
	failed := make([]uint64, 0, 4)
	for _, pos := range poss {
		e := k.rb.at(pos)
		idx := k.vectorIndexOf(e.ppa)
		if idx >= 0 && idx < len(c.Errs) && c.Errs[idx] != nil {
			if k.entryIsCurrent(e) {
				e.state = esBuffered
				failed = append(failed, pos)
			} else {
				// Superseded while in flight: nothing to recover.
				k.releaseGCRef(e)
				e.state = esDone
			}
			k.Stats.WriteErrors++
			if e.isGC {
				k.Stats.GCWriteErrors++
			}
		}
	}
	// Remove failed entries from the unit's pending list so finalizeUnit
	// does not complete them against the bad block.
	if len(failed) > 0 {
		kept := poss[:0]
		inFailed := func(pos uint64) bool {
			for _, f := range failed {
				if f == pos {
					return true
				}
			}
			return false
		}
		for _, pos := range poss {
			if !inFailed(pos) {
				kept = append(kept, pos)
			}
		}
		g.pending[unit] = kept
		// The resubmission chunk keeps the failed entries' admission
		// stamps: they are still the current version of their sectors
		// (checked above), and any later overwrite was admitted later, so
		// it carries a higher stamp and still replays after the rewrite.
		// The chunk stays in the stream of the unit that failed.
		s := k.laneOf(g.pu)
		s.retry.Push(chunk{stream: int(g.stream), poss: failed})
		if d := s.pendingSectors(); d > s.peakDepth {
			s.peakDepth = d
		}
		s.wake()
	}
	k.markSuspect(g)
	k.kickWriters()
}

// laneOf returns the lane whose PU span covers the partition-relative PU
// index. Lanes partition the instance's PU space evenly, so the owner is
// a single division; after a rebuild the spans change but every PU always
// has exactly one owner.
func (k *Pblk) laneOf(pu int) *slot {
	span := k.nPUs / len(k.slots)
	return k.slots[pu/span]
}

// vectorIndexOf returns the index of a packed address within its write
// unit's address vector (plane-major layout produced by unitAddrs).
func (k *Pblk) vectorIndexOf(v uint64) int {
	plane, sector := k.fmtr.PlaneSectorOf(v)
	return plane*k.geo.SectorsPerPage + sector
}

// markSuspect retires a group from service after a write failure: it is
// detached from its lane and queued for priority GC, after which it is
// marked bad (paper §4.2.3: "the remaining pages are padded and the block
// is sent for GC").
func (k *Pblk) markSuspect(g *group) {
	if g.state == stSuspect || g.state == stBad {
		return
	}
	for _, s := range k.slots {
		for st := range s.grp {
			if s.grp[st] == g {
				k.setLaneGroup(s, st, nil)
				s.advance()
			}
		}
	}
	g.state = stSuspect
	k.suspects.Push(g.id)
	k.rb.advanceTail()
	k.checkFlushes()
	k.maybeKickGC()
	k.notifyState()
}
