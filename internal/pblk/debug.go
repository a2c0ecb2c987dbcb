package pblk

import (
	"fmt"
	"strings"
)

// LaneStat is a snapshot of one write lane, exposed for the harness
// lane-scaling experiment and the benchmark's per-layer counters.
type LaneStat struct {
	Lane          int
	PULo, PUHi    int // PU span [PULo, PUHi)
	CurPU         int
	OpenGroup     int // open user-stream group id, -1 when none
	GCOpenGroup   int // open GC-stream group id, -1 when none
	AppOpenGroup  int // open app-stream group id, -1 when none
	QueueDepth    int // dispatched user sectors awaiting unit formation
	GCQueueDepth  int // dispatched GC-stream sectors awaiting unit formation
	AppQueueDepth int // dispatched app-stream sectors awaiting unit formation
	Retries       int // write-failed sectors awaiting resubmission
	PeakDepth     int // high-water mark of queued+retried sectors
	Inflight      int // write units outstanding on the PU
	UnitsWritten  int64
	SemStalls     int64 // writer blocked on the per-PU in-flight semaphore
	Waits         int64 // writer parked with no work
	Padded        int64 // padding sectors this lane wrote
}

// LaneStats returns a per-lane snapshot of the sharded write datapath.
func (k *Pblk) LaneStats() []LaneStat {
	out := make([]LaneStat, len(k.slots))
	for i, s := range k.slots {
		grp, gcGrp, appGrp := -1, -1, -1
		if s.grp[streamUser] != nil {
			grp = s.grp[streamUser].id
		}
		if s.grp[streamGC] != nil {
			gcGrp = s.grp[streamGC].id
		}
		if s.grp[streamApp] != nil {
			appGrp = s.grp[streamApp].id
		}
		out[i] = LaneStat{
			Lane: s.lane, PULo: s.puLo, PUHi: s.puHi, CurPU: s.curPU,
			OpenGroup: grp, GCOpenGroup: gcGrp, AppOpenGroup: appGrp,
			QueueDepth: s.qSectors[streamUser], GCQueueDepth: s.qSectors[streamGC],
			AppQueueDepth: s.qSectors[streamApp],
			Retries:       s.retrySectors(),
			PeakDepth:     s.peakDepth, Inflight: s.sem.InUse(),
			UnitsWritten: s.unitsWritten, SemStalls: s.stalls,
			Waits: s.waits, Padded: s.padded,
		}
	}
	return out
}

// Crashed reports whether the instance was abandoned by Crash (simulated
// power loss). A crashed instance serves no further I/O; the volume
// manager's health monitor uses this to distinguish a dead member from a
// stopped one.
func (k *Pblk) Crashed() bool { return k.crashed }

// retryCount sums write-failed sectors awaiting resubmission across lanes.
func (k *Pblk) retryCount() int {
	n := 0
	for _, s := range k.slots {
		n += s.retrySectors()
	}
	return n
}

// DebugState returns a multi-line snapshot of the FTL's internal state:
// ring buffer cursors, rate-limiter output, GC pipeline occupancy, group-
// state census, and the per-lane writer shards with their stream queues.
// Intended for diagnostics and tests; the format is not stable.
func (k *Pblk) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "partition=%v (%d PUs, lanes relative)\n", k.dev.Range(), k.nPUs)
	fmt.Fprintf(&b, "free=%d/%d spare=%d gcStart=%d gcStop=%d gcActive=%v gcInFlight=%d/%d rlIdle=%v quota=%d emergency=%d\n",
		k.freeGroups, k.usableGroups, k.spareGroups(), k.gcStartGroups(), k.gcStopGroups(),
		k.gcActive, k.gcInFlight, k.cfg.GCPipelineDepth, k.rl.idle, k.rl.userQuota, k.emergencyReserve())
	fmt.Fprintf(&b, "ring head=%d disp=%d tail=%d userIn=%d gcIn=%d free=%d cap=%d pendUser=%d pendGC=%d pendApp=%d\n",
		k.rb.head, k.rb.disp, k.rb.tail, k.rb.userIn, k.rb.gcIn, k.rb.free(), k.rb.capacity(),
		len(k.pend[streamUser]), len(k.pend[streamGC]), len(k.pend[streamApp]))
	fmt.Fprintf(&b, "retry=%d flushes=%d suspects=%d stopping=%v rebuilding=%v gcStopping=%v\n",
		k.retryCount(), k.flushes.Len(), k.suspects.Len(), k.stopping, k.rebuilding, k.gcStopping)
	fmt.Fprintf(&b, "gc moved=%d recycled=%d gcLost=%d gcPeakInFlight=%d\n",
		k.Stats.GCMovedSectors, k.Stats.GCBlocksRecycled, k.Stats.GCLostSectors, k.Stats.GCPeakInFlight)
	states := map[groupState]int{}
	minValid, maxValid, pending := 1<<30, -1, 0
	for _, g := range k.groups {
		states[g.state]++
		for _, poss := range g.pending {
			if poss != nil {
				pending++
			}
		}
		if g.state == stClosed {
			if g.valid < minValid {
				minValid = g.valid
			}
			if g.valid > maxValid {
				maxValid = g.valid
			}
		}
		if g.state == stGC {
			fmt.Fprintf(&b, "  stGC group %d: valid=%d gcPending=%d gcDoneSet=%v\n",
				g.id, g.valid, g.gcPending, g.gcDone != nil)
		}
	}
	fmt.Fprintf(&b, "groups=%v closedValid=[%d,%d]/%d pendingUnits=%d\n",
		states, minValid, maxValid, k.dataSectors, pending)
	for _, s := range k.slots {
		if s.grp[streamUser] != nil || s.grp[streamGC] != nil || s.queuedSectors() > 0 ||
			s.retry.Len() > 0 || s.sem.InUse() > 0 || s.sem.QueueLen() > 0 {
			grp, gcGrp := -1, -1
			if s.grp[streamUser] != nil {
				grp = s.grp[streamUser].id
			}
			if s.grp[streamGC] != nil {
				gcGrp = s.grp[streamGC].id
			}
			fmt.Fprintf(&b, "  lane %d: pu=%d grp=%d gcGrp=%d q=%d gcq=%d retry=%d peak=%d units=%d stalls=%d semInUse=%d semQueue=%d quit=%v\n",
				s.lane, s.curPU, grp, gcGrp, s.qSectors[streamUser], s.qSectors[streamGC],
				s.retrySectors(), s.peakDepth, s.unitsWritten, s.stalls,
				s.sem.InUse(), s.sem.QueueLen(), s.quit)
		}
	}
	if e := k.rb.at(k.rb.tail); k.rb.tail < k.rb.head {
		fmt.Fprintf(&b, "tail entry: pos=%d lba=%d state=%d isGC=%v stamp=%d ppa=%#x\n",
			e.pos, e.lba, e.state, e.isGC, e.stamp, e.ppa)
	}
	return b.String()
}

// CheckInvariants validates the sharded datapath's structural invariants;
// tests call it at quiescent points. It returns the first violation found.
func (k *Pblk) CheckInvariants() error {
	r := &k.rb
	if !(r.tail <= r.disp && r.disp <= r.head) {
		return fmt.Errorf("ring cursors out of order: tail=%d disp=%d head=%d", r.tail, r.disp, r.head)
	}
	if r.userIn < 0 || r.gcIn < 0 || r.userIn+r.gcIn > r.inRing() {
		return fmt.Errorf("ring accounting: userIn=%d gcIn=%d inRing=%d", r.userIn, r.gcIn, r.inRing())
	}
	// Stamp/admission coupling: stamps are drawn at produce, so across the
	// live ring a later position must always carry a later stamp — this is
	// what lets recovery replay sectors in stamp order no matter which
	// stream or lane programs them first.
	for pos := r.tail + 1; pos < r.head; pos++ {
		if r.at(pos).stamp <= r.at(pos-1).stamp {
			return fmt.Errorf("stamp/admission inversion: pos %d has stamp %d but pos %d has stamp %d",
				pos-1, r.at(pos-1).stamp, pos, r.at(pos).stamp)
		}
	}
	seen := make(map[uint64]string)
	claim := func(pos uint64, owner string) error {
		if prev, dup := seen[pos]; dup {
			return fmt.Errorf("pos %d held by both %s and %s", pos, prev, owner)
		}
		seen[pos] = owner
		return nil
	}
	// Pending (scanned, not yet chunked) positions: in [tail, disp),
	// strictly increasing, stream-correct.
	for st := 0; st < numStreams; st++ {
		for i, pos := range k.pend[st] {
			if pos < r.tail || pos >= r.disp {
				return fmt.Errorf("pend[%s] holds pos %d outside [tail=%d, disp=%d)", streamName(st), pos, r.tail, r.disp)
			}
			if i > 0 && pos <= k.pend[st][i-1] {
				return fmt.Errorf("pend[%s] not strictly increasing at pos %d", streamName(st), pos)
			}
			if k.streamOf(r.at(pos)) != st {
				return fmt.Errorf("pend[%s] holds pos %d of the wrong stream", streamName(st), pos)
			}
			if err := claim(pos, "pend"); err != nil {
				return err
			}
		}
	}
	type owner struct{ lane, stream int }
	groupOwner := make(map[int]owner)
	for _, s := range k.slots {
		for st := range s.q {
			sectors := 0
			var prevPos uint64
			for i := 0; i < s.q[st].Len(); i++ {
				c := s.q[st].At(i)
				if len(c.poss) == 0 {
					return fmt.Errorf("lane %d holds an empty %s chunk", s.lane, streamName(st))
				}
				if c.stream != st {
					return fmt.Errorf("lane %d %s queue holds a chunk tagged stream %d", s.lane, streamName(st), c.stream)
				}
				for _, pos := range c.poss {
					if pos < r.tail || pos >= r.disp {
						return fmt.Errorf("lane %d %s queue holds pos %d outside [tail=%d, disp=%d)", s.lane, streamName(st), pos, r.tail, r.disp)
					}
					if sectors > 0 && pos <= prevPos {
						return fmt.Errorf("lane %d %s queue not strictly increasing at pos %d", s.lane, streamName(st), pos)
					}
					if k.streamOf(r.at(pos)) != st {
						return fmt.Errorf("lane %d %s queue holds pos %d of the wrong stream", s.lane, streamName(st), pos)
					}
					prevPos = pos
					sectors++
					if err := claim(pos, fmt.Sprintf("lane %d", s.lane)); err != nil {
						return err
					}
				}
			}
			if sectors != s.qSectors[st] {
				return fmt.Errorf("lane %d qSectors[%s]=%d but chunks hold %d", s.lane, streamName(st), s.qSectors[st], sectors)
			}
		}
		for i := 0; i < s.retry.Len(); i++ {
			for _, pos := range s.retry.At(i).poss {
				if pos < r.tail || pos >= r.head {
					return fmt.Errorf("lane %d retry holds pos %d outside the ring", s.lane, pos)
				}
			}
		}
		for st := range s.grp {
			g := s.grp[st]
			if g == nil {
				continue
			}
			if g.state != stOpen {
				return fmt.Errorf("lane %d holds group %d in state %v", s.lane, g.id, g.state)
			}
			if int(g.stream) != st {
				return fmt.Errorf("lane %d stream %s holds group %d tagged stream %d", s.lane, streamName(st), g.id, g.stream)
			}
			if prev, dup := groupOwner[g.id]; dup {
				return fmt.Errorf("group %d attached to lane %d/%s and lane %d/%s",
					g.id, prev.lane, streamName(prev.stream), s.lane, streamName(st))
			}
			groupOwner[g.id] = owner{lane: s.lane, stream: st}
		}
	}
	// Submitted units: each position a group's pending lists hold is in
	// [tail, disp), belongs to an entry still in flight, and is held nowhere
	// else — finalizeUnit drops the list when the unit's program completes.
	for _, g := range k.groups {
		for unit, poss := range g.pending {
			if len(poss) == 0 {
				continue
			}
			owner := fmt.Sprintf("group %d unit %d", g.id, unit)
			for _, pos := range poss {
				if pos < r.tail || pos >= r.disp {
					return fmt.Errorf("%s holds pos %d outside [tail=%d, disp=%d)", owner, pos, r.tail, r.disp)
				}
				if st := r.at(pos).state; st != esSubmitted {
					return fmt.Errorf("%s holds pos %d in entry state %d, want submitted", owner, pos, st)
				}
				if err := claim(pos, owner); err != nil {
					return err
				}
			}
		}
	}
	free := 0
	for gpu := range k.freePerPU {
		for _, it := range k.freePerPU[gpu] {
			g := k.groups[it.id]
			if g.state != stFree {
				return fmt.Errorf("free heap of PU %d holds group %d in state %v", gpu, it.id, g.state)
			}
			if g.gpu != gpu {
				return fmt.Errorf("free heap of PU %d holds foreign group %d (pu %d)", gpu, it.id, g.gpu)
			}
			free++
		}
	}
	if free != k.freeGroups {
		return fmt.Errorf("freeGroups=%d but heaps hold %d", k.freeGroups, free)
	}
	if k.gcInFlight < 0 || k.gcInFlight > k.cfg.GCPipelineDepth {
		return fmt.Errorf("gcInFlight=%d outside [0,%d]", k.gcInFlight, k.cfg.GCPipelineDepth)
	}
	covered := 0
	for _, s := range k.slots {
		if s.grp[streamGC] != nil {
			covered++
		}
	}
	if covered != k.gcOpenLanes {
		return fmt.Errorf("gcOpenLanes=%d but %d lanes hold GC groups", k.gcOpenLanes, covered)
	}
	// Recount through the decoder, so the packed lookup the datapath keeps
	// the counts with (groupOfEntry) is checked against it.
	decoded := func(v uint64) *group { return k.groupOf(k.mediaAddr(v)) }
	for id, n := range k.countValid(decoded) {
		if g := k.groups[id]; g.valid != n {
			return fmt.Errorf("group %d counts %d valid sectors but the L2P maps %d into it", id, g.valid, n)
		}
	}
	return nil
}
