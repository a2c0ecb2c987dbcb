package pblk

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// rateLimiter is the PID-controlled feedback loop of §4.2.4: its input is
// the number of free block groups measured against the spare pool (the
// groups over-provisioning keeps beyond the exported capacity), its output
// the share of write-buffer entries reserved away from user I/O. At ample
// free space users own the whole buffer; as free blocks shrink toward the
// spare floor, GC is prioritized; at exhaustion user writes stall entirely.
//
// When GC reports that no group holds garbage (`idle`), throttling is
// pointless — free space cannot be below the floor in that state unless
// the device is genuinely full of live data — so users get the full
// buffer back and the integral is drained.
type rateLimiter struct {
	startGroups int // setpoint: GC keeps free groups at or above this
	spare       int // total spare groups; normalizes the error signal
	integ       float64
	lastErr     float64
	cap         int
	unitSectors int
	idle        bool // GC found nothing to reclaim
	// userQuota is the current maximum number of user entries in the ring.
	userQuota int
}

// The PID gains (paper §4.2.4) on the free-group error signal. The signal is
// normalized by the spare pool, so per-update deltas are small and a unit
// derivative gain stays gentle: it damps quota oscillation when the error
// moves fast (a GC burst recycling several groups at once).
const (
	rlKp = 4
	rlKi = 0.3
	rlKd = 1
)

// GC starts when free groups drop below gcStartFrac of the spare
// (over-provisioned) pool and stops once they recover above gcStopFrac of it.
const (
	gcStartFrac = 0.50
	gcStopFrac  = 0.75
)

func newRateLimiter(capacity, unitSectors int) rateLimiter {
	return rateLimiter{
		cap:         capacity,
		unitSectors: unitSectors,
		userQuota:   capacity,
		spare:       1,
	}
}

// calibrate sets the spare-pool geometry once group accounting is known.
func (rl *rateLimiter) calibrate(spareGroups, startGroups int) {
	if spareGroups < 1 {
		spareGroups = 1
	}
	rl.spare = spareGroups
	rl.startGroups = startGroups
}

// update recomputes the user quota from the current free-group count.
func (rl *rateLimiter) update(freeGroups int) {
	if rl.idle {
		rl.integ = 0
		rl.lastErr = 0
		rl.userQuota = rl.cap
		return
	}
	err := float64(rl.startGroups-freeGroups) / float64(rl.spare) // >0 when scarce
	rl.integ += err
	if rl.integ < 0 {
		rl.integ = 0
	}
	if rl.integ > 3 {
		rl.integ = 3
	}
	u := rlKp*err + rlKi*rl.integ + rlKd*(err-rl.lastErr)
	rl.lastErr = err
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	quota := int(float64(rl.cap) * (1 - u))
	// Guarantee forward progress for user I/O unless fully saturated
	// ("if the device reaches its capacity, user I/Os will be completely
	// disabled until enough free blocks are available").
	if quota < rl.unitSectors && u < 1 {
		quota = rl.unitSectors
	}
	rl.userQuota = quota
}

// setIdle records whether GC has reclaimable garbage.
func (k *Pblk) setGCIdle(idle bool) {
	if k.rl.idle == idle {
		return
	}
	k.rl.idle = idle
	k.rl.update(k.freeGroups)
	if idle {
		k.rb.signalSpace()
	}
}

// spareGroups returns the groups over-provisioning holds back from the
// exported capacity.
func (k *Pblk) spareGroups() int {
	needed := int((k.capacityLBAs + int64(k.dataSectors) - 1) / int64(k.dataSectors))
	s := k.usableGroups - needed
	if s < 1 {
		s = 1
	}
	return s
}

// gcStartGroups / gcStopGroups translate the spare fractions into
// free-group thresholds. Both are clamped above the emergency
// reserve: user admission stops entirely at the reserve floor, so GC must
// engage before free space falls to it — otherwise writes would stall
// with the collector idle.
func (k *Pblk) gcStartGroups() int {
	v := int(float64(k.spareGroups()) * gcStartFrac)
	if min := k.emergencyReserve() + 2; v < min {
		v = min
	}
	return v
}

func (k *Pblk) gcStopGroups() int {
	v := int(float64(k.spareGroups()) * gcStopFrac)
	if min := k.gcStartGroups() + 2; v < min {
		v = min
	}
	return v
}

// gcNeeded reports whether free space is below the GC trigger, with
// hysteresis between the start and stop thresholds. Victims already owned
// by a worker count as prospective free groups — except retire victims,
// which end as bad blocks — so the scheduler does not over-collect while
// a burst of recycles is in flight.
func (k *Pblk) gcNeeded() bool {
	prospective := k.freeGroups + k.gcInFlight - k.gcRetiring
	if k.gcActive {
		if prospective >= k.gcStopGroups() {
			k.gcActive = false
		}
	} else if prospective < k.gcStartGroups() {
		k.gcActive = true
	}
	return k.gcActive
}

// maybeKickGC wakes the GC scheduler when there is work.
func (k *Pblk) maybeKickGC() {
	if k.suspects.Len() > 0 || k.freeGroups < k.gcStartGroups() {
		k.gcKick.Signal()
	}
}

// gcLoop is pblk's garbage-collection scheduler (paper §4.2.4, pipelined):
// it keeps up to Config.GCPipelineDepth victim groups in flight, each
// moved by one of as many mover processes, so victim selection,
// reverse-map reads, valid-sector reads, and lane drains of different
// victims overlap instead of serializing. Suspect (write-failed) groups
// are drained with priority and retired; otherwise victims are chosen by
// cost-benefit score whenever free space runs low. On stop the scheduler
// waits for every in-flight victim before signalling gcDone.
func (k *Pblk) gcLoop(p *sim.Proc) {
	defer func() {
		k.gcDone.Signal()
		// Release the parked movers: a nil victim ends a mover. Busy ones
		// see the stop when their victim is done.
		for _, m := range k.gcIdle {
			m.kick.Signal()
		}
		k.gcIdle = nil
	}()
	for !k.stopping && !k.gcStopping {
		k.launchVictims()
		k.gcKick.Rearm()
		p.Wait(k.gcKick)
	}
	for k.gcInFlight > 0 {
		if k.crashed {
			return
		}
		k.gcKick.Rearm()
		p.Wait(k.gcKick)
	}
}

// gcBacklogged reports whether reclaim should run several victims at
// once: user admission frozen (free space at the emergency floor or the
// limiter fully saturated — reclaim latency is then the stall users are
// waiting on, and overlapping the next victim's reads with the current
// drain shortens it), or the user side fully idle (post-burst catch-up
// on free media bandwidth). In ordinary paced scarcity serial collection
// is deliberate: garbage keeps accruing between picks, so each serial
// pick is strictly cheaper than a concurrent one would have been.
func (k *Pblk) gcBacklogged() bool {
	if k.freeGroups <= k.emergencyReserve() {
		return true
	}
	if !k.cfg.DisableRateLimiter && k.rl.userQuota == 0 {
		return true
	}
	return k.rb.userIn == 0 && k.admitQ.Len() == 0
}

// gcMover is one of the Config.GCPipelineDepth long-lived GC worker
// processes: it parks on kick until launchVictims hands it a victim.
type gcMover struct {
	kick   *sim.Event
	g      *group // the victim; nil when the mover is released
	retire bool
}

// startMovers spawns the GC workers. They must park before the scheduler
// first runs, so that a hand-off queues a mover's wake exactly where
// spawning a worker per victim queued its start.
func (k *Pblk) startMovers() {
	for i := 0; i < k.cfg.GCPipelineDepth; i++ {
		m := &gcMover{kick: k.env.NewEvent()}
		k.gcIdle = append(k.gcIdle, m)
		k.env.Go(fmt.Sprintf("pblk.%s.gcmover%d", k.name, i), func(p *sim.Proc) { k.runMover(p, m) })
	}
}

// runMover is a mover's loop: recycle each victim handed over, then park
// again, until released or the target stops.
func (k *Pblk) runMover(p *sim.Proc, m *gcMover) {
	for {
		p.Wait(m.kick)
		m.kick.Rearm()
		g := m.g
		if g == nil {
			return
		}
		p.SetName(g.mover)
		k.recycle(p, g, m.retire)
		m.g = nil
		k.gcInFlight--
		if m.retire {
			k.gcRetiring--
		}
		k.gcKick.Signal()
		k.notifyState()
		if k.stopping || k.gcStopping {
			return
		}
		k.gcIdle = append(k.gcIdle, m)
	}
}

// launchVictims fills the GC pipeline: suspects first, then cost-benefit
// victims while free space is below the hysteresis band. Each victim is
// claimed (stGC) before it is handed to a mover so it cannot be picked
// twice; a mover is idle for every victim the pipeline has room for.
// The first in-flight victim uses the full desperation ceiling (with its
// liveness escapes); additional concurrent victims launch only under
// acute pressure, where overlapping victim reads with sibling drains
// shortens a stall users are actually experiencing.
func (k *Pblk) launchVictims() {
	for k.gcInFlight < k.cfg.GCPipelineDepth {
		first := k.gcInFlight == 0
		if !first && !k.gcBacklogged() {
			return
		}
		var g *group
		retire := false
		scrub := false
		switch {
		case k.suspects.Len() > 0:
			g = k.groups[k.suspects.Pop()]
			retire = true
		case k.scrubQ.Len() > 0:
			cand := k.groups[k.scrubQ.Pop()]
			if !cand.scrubQueued || cand.state != stClosed {
				// Recycled or retired since it was queued; the flag was
				// cleared on that path, so the entry is stale.
				continue
			}
			cand.scrubQueued = false
			g = cand
			scrub = true
		case k.gcNeeded():
			v, anyGarbage := k.pickVictim(k.gcMaxValidFrac(first))
			if v == nil {
				if !anyGarbage {
					// Nothing holds garbage: throttling users cannot
					// create free space, so stand down until overwrites
					// or trims arrive.
					k.setGCIdle(true)
				}
				// Otherwise: victims exist but all are too full for the
				// current desperation level — wait for the overwrite
				// frontier to create cheaper ones (or for free space to
				// sink further, which raises the ceiling).
				return
			}
			g = v
			k.setGCIdle(false)
		default:
			return
		}
		g.state = stGC
		k.gcInFlight++
		if retire {
			k.gcRetiring++
		}
		if scrub {
			k.Stats.ScrubbedGroups++
			k.Stats.ScrubbedSectors += int64(g.valid)
		}
		if int64(k.gcInFlight) > k.Stats.GCPeakInFlight {
			k.Stats.GCPeakInFlight = int64(k.gcInFlight)
		}
		m := k.gcIdle[len(k.gcIdle)-1]
		k.gcIdle = k.gcIdle[:len(k.gcIdle)-1]
		m.g, m.retire = g, retire
		m.kick.Signal()
	}
}

// gcScore is the cost-benefit victim policy (replacing pure greedy
// min-valid): the classic (1-u)/(1+u) benefit/cost ratio — free space
// gained over the cost of reading and rewriting the live fraction u —
// weighted by the group's age (older groups are colder, so their live
// data is less likely to be invalidated right after the move) and by a
// wear term that prefers recycling groups with fewer erase cycles than
// the fleet average (dynamic wear leveling: a cold block re-enters the
// free pool and absorbs new writes). Both modifiers are bounded — the
// combined weight stays within [0.5, 2.5] — so the valid ratio always
// dominates: an unbounded age term would happily move nearly-full old
// blocks and multiply write amplification.
func (k *Pblk) gcScore(g *group) float64 {
	u := float64(g.valid) / float64(k.dataSectors)
	// age saturates at 1 once the group is older than about one full
	// allocation sweep of the device.
	age := float64(k.seqCounter - g.seq)
	ageBoost := age / (age + float64(k.usableGroups) + 1)
	wearBoost := 0.0
	if k.usableGroups > 0 {
		avg := float64(k.eraseTotal) / float64(k.usableGroups)
		wearBoost = (avg - float64(g.erases)) / (2 * (avg + 1))
		if wearBoost > 0.5 {
			wearBoost = 0.5
		}
		if wearBoost < -0.5 {
			wearBoost = -0.5
		}
	}
	return (1 - u) / (1 + u) * (1 + ageBoost + wearBoost)
}

// gcMaxValidFrac is the victim admission ceiling: the fraction of still-
// valid sectors GC is willing to move, scaled by how desperate for free
// space it is. Collecting a nearly-full group frees almost nothing and
// multiplies write amplification, so while free space is merely below the
// start threshold GC takes only half-dead groups and waits for the
// workload's overwrites to kill more sectors; as free space sinks toward
// the emergency reserve the ceiling rises to 1 and GC takes whatever
// holds any garbage at all. Without this guard a uniform overwrite
// workload collapses into a churn spiral: GC runs ahead of the overwrite
// frontier, re-moving its own survivors at ever higher valid ratios.
//
// first marks the pick that would make GC non-idle (no other victim in
// flight): only it gets the liveness escapes — at the emergency floor,
// or with user admission frozen (no new overwrites can arrive to create
// cheaper victims), it takes whatever holds garbage.
func (k *Pblk) gcMaxValidFrac(first bool) float64 {
	start := k.gcStartGroups()
	floor := k.emergencyReserve()
	if start <= floor {
		return 1
	}
	if first {
		if k.freeGroups <= floor {
			return 1
		}
		if !k.cfg.DisableRateLimiter && k.rl.userQuota == 0 {
			return 1
		}
	}
	d := float64(start-k.freeGroups) / float64(start-floor)
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	if !first {
		// Extra concurrent victims halve the desperation scale (ceiling
		// capped at 0.75): overlapping drains must not reach deeper into
		// expensive victims than serial collection soon would.
		d /= 2
	}
	return 0.5 + 0.5*d
}

// pickVictim selects the closed group with the best cost-benefit score
// among those at or below the maxValid ceiling. Fully valid groups yield
// no space and are skipped; anyGarbage reports whether any group held
// garbage at all (ceiling aside), distinguishing "all victims too
// expensive for now" from "truly nothing to reclaim". PUs whose free
// list ran dry take priority: recycling there refills the heap a lane's
// rotation prefers.
func (k *Pblk) pickVictim(maxValidFrac float64) (victim *group, anyGarbage bool) {
	maxValid := int(maxValidFrac * float64(k.dataSectors))
	var best, bestNeedy *group
	var bestScore, bestNeedyScore float64
	for _, g := range k.groups {
		if g.state != stClosed {
			continue
		}
		if g.valid >= k.dataSectors {
			continue
		}
		if g.stream == streamApp && g.valid > 0 && k.freeGroups > k.emergencyReserve() {
			// Compaction-as-GC: app-stream groups hold SSTable extents the
			// application erases as a unit (trim after a manifest commit), so
			// relocating their live sectors would just duplicate the LSM's
			// own reclaim. They become ordinary victims once fully dead —
			// zero-cost erases — and the exemption lifts at the emergency
			// floor so a misbehaving application cannot wedge the device.
			continue
		}
		anyGarbage = true
		if g.valid > maxValid {
			continue
		}
		score := k.gcScore(g)
		if best == nil || score > bestScore {
			best, bestScore = g, score
		}
		if len(k.freePerPU[g.gpu]) == 0 && (bestNeedy == nil || score > bestNeedyScore) {
			bestNeedy, bestNeedyScore = g, score
		}
	}
	// Only divert to a starved PU when its best victim scores nearly as
	// well as the global one; lanes can otherwise borrow blocks from
	// another PU (openGroupOn's fallback), and moving much fuller blocks
	// just to feed one PU multiplies write amplification.
	if best != nil && bestNeedy != nil && bestNeedy != best &&
		bestNeedyScore >= bestScore*0.8 {
		return bestNeedy, anyGarbage
	}
	return best, anyGarbage
}

// recycle moves a group's valid sectors back through the write buffer, then
// erases and frees it — or retires it when it is suspect. It runs in a GC
// worker process; several recycles proceed concurrently.
func (k *Pblk) recycle(p *sim.Proc, g *group, retire bool) {
	g.state = stGC
	if g.valid > 0 {
		k.moveValid(p, g)
	}
	if k.crashed {
		return
	}
	if retire {
		// Write failures condemn the block (§4.2.3).
		die := k.dev.Die(g.gpu)
		for pl := 0; pl < k.geo.PlanesPerPU; pl++ {
			if err := die.MarkBad(pl, g.blk); err != nil {
				break
			}
		}
		g.state = stBad
		k.Stats.BadBlocks++
		k.notifyState()
		return
	}
	if k.eraseGroup(p, g) != nil {
		// No retry or recovery on erase failure: mark bad (§2.2).
		k.Stats.EraseErrors++
		k.Stats.BadBlocks++
		g.state = stBad
		k.notifyState()
		return
	}
	g.erases++
	k.eraseTotal++
	k.Stats.GCBlocksRecycled++
	k.returnFreeGroup(g)
}

// gcReadWindow bounds the vector reads a single victim keeps in flight:
// enough to hide media read latency behind ring admission without
// buffering a whole group's data in host memory.
const gcReadWindow = 4

// gcMove is one still-valid sector of a victim group awaiting rewrite:
// its LBA and the L2P media entry that maps it into the victim.
type gcMove struct {
	lba   int64
	entry uint64
}

// gcChunk is one pooled vector read of a victim drain: the moves it
// serves, the submitted vector, the arrival event, and the completion
// callback bound once at creation so resubmission allocates nothing.
type gcChunk struct {
	k     *Pblk
	moves []gcMove
	vec   ocssd.Vector
	done  *sim.Event
	c     *ocssd.Completion
	cbFn  func(*ocssd.Completion)
}

func (rc *gcChunk) onData(c *ocssd.Completion) {
	rc.c = c
	rc.done.Signal()
}

// submit issues the chunk's vector read asynchronously.
func (rc *gcChunk) submit() {
	rc.vec.Op = ocssd.OpRead
	rc.vec.Addrs = rc.vec.Addrs[:0]
	for _, m := range rc.moves {
		rc.vec.Addrs = append(rc.vec.Addrs, rc.k.mediaAddr(m.entry))
	}
	rc.k.dev.Submit(&rc.vec, rc.cbFn)
}

// putGCChunk re-arms a drained chunk (its read completed, so no waiter is
// parked on done) and returns it to the pool.
func (k *Pblk) putGCChunk(rc *gcChunk) {
	rc.moves = nil
	rc.c = nil
	rc.done.Reset()
	k.gcChunks.Put(rc)
}

// moveValid rewrites every still-valid sector of g through the write buffer
// and waits until all moves are persisted. The reverse map comes from the
// close metadata stored on the group's last pages — pblk keeps no reverse
// L2P in host memory (paper §4.2.4) — with an OOB scan as the fallback for
// groups that died before their close metadata was written.
//
// The media reads are pipelined: up to gcReadWindow vector reads are kept
// in flight via asynchronous submission while earlier chunks are admitted
// into the ring, so a victim's read latency overlaps its own admission —
// and, with several victims in flight, the drains of sibling victims.
func (k *Pblk) moveValid(p *sim.Proc, g *group) {
	lbas := k.readGroupLBAs(p, g)
	// Gather sectors whose mapping still points into this group.
	moves := k.gcMoves.Get()
	for i, lba := range lbas {
		if lba == padLBA || lba < 0 || lba >= k.capacityLBAs {
			continue
		}
		if v := k.mediaEntry(k.sectorAddr(g, i)); k.l2p[lba] == v {
			moves = append(moves, gcMove{lba: lba, entry: v})
		}
	}
	chunks := k.gcChunkLists.Get()
	for lo := 0; lo < len(moves); lo += ocssd.MaxVectorLen {
		hi := lo + ocssd.MaxVectorLen
		if hi > len(moves) {
			hi = len(moves)
		}
		rc := k.gcChunks.Get()
		rc.moves = moves[lo:hi]
		chunks = append(chunks, rc)
	}
	for i := 0; i < len(chunks) && i < gcReadWindow; i++ {
		chunks[i].submit()
	}
	// Ring admission is serialized across victims (a FIFO token): reads of
	// younger victims overlap the drain of the oldest, but their moves
	// enter the ring only after the oldest victim's moves are all in.
	// Interleaved admission would spread every victim's drain across the
	// whole pipeline window, multiplying the time to the FIRST erase — the
	// event a stalled writer is actually waiting on.
	k.gcAdmit.Acquire(p)
	released := false
	release := func() {
		if !released {
			released = true
			k.gcAdmit.Release()
		}
	}
	defer release()
	for i, rc := range chunks {
		p.Wait(rc.done)
		if next := i + gcReadWindow; next < len(chunks) {
			chunks[next].submit()
		}
		for j, m := range rc.moves {
			if rc.c.Errs[j] != nil {
				// The sector is unreadable; unless the user overwrote it
				// while the read was in flight, its data is lost from the
				// device's perspective and upper layers must recover.
				if k.l2p[m.lba] == m.entry {
					k.Stats.GCLostSectors++
				}
				continue
			}
			k.reserveGC(p)
			if k.stopping {
				return
			}
			// Re-validate after potentially blocking: the user may have
			// overwritten the sector meanwhile (kernel pblk does the same
			// L2P check before inserting GC I/O).
			if k.l2p[m.lba] != m.entry {
				continue
			}
			pos := k.produce(m.lba, rc.c.Data[j], true, g.id, blockdev.HintNone)
			g.gcPending++
			k.installCacheMapping(m.lba, pos)
			k.Stats.GCMovedSectors++
		}
		// The ring entries copy nothing: they alias the NAND page slices in
		// rc.c.Data until the lane writers program them. Those slices are
		// the victim's own pages, valid until the victim is erased — which
		// waits for g.gcPending, i.e. for every one of these entries to be
		// finalized. Recycling here only returns the Completion container
		// (its Data slots are re-cleared on reuse), never the page memory.
		k.dev.Recycle(rc.c)
		k.putGCChunk(rc)
		k.kickWriters()
	}
	k.gcMoves.Put(moves[:0])
	clear(chunks)
	k.gcChunkLists.Put(chunks[:0])
	release()
	if g.gcPending > 0 {
		// Force the moves out with an internal flush so the victim drains
		// even when user traffic is idle. The moves are sharded over the
		// lane queues like any writes; a stalled lane delays only its own
		// share of the drain. The done event is per-group and reused across
		// the group's GC cycles; it is always in the fired state between
		// cycles, so stray Signals from a previous cycle are no-ops.
		if g.gcDone == nil {
			g.gcDone = k.env.NewEvent()
		} else {
			g.gcDone.Reset()
		}
		k.flushes.Push(flushReq{pos: k.rb.head - 1, ev: k.events.Get()})
		k.kickWriters()
		p.Wait(g.gcDone)
	}
}

// sectorAddr maps a group-relative data sector index (the order lbas were
// appended during mapping) to its physical address.
func (k *Pblk) sectorAddr(g *group, dataIdx int) ppa.Addr {
	unit := 1 + dataIdx/k.unitSectors
	within := dataIdx % k.unitSectors
	plane := within / k.geo.SectorsPerPage
	sector := within % k.geo.SectorsPerPage
	ch, pu := k.dev.PUAddr(g.gpu)
	return ppa.Addr{Ch: ch, PU: pu, Plane: plane, Block: g.blk, Page: unit, Sector: sector}
}
