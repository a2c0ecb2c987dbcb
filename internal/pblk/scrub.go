package pblk

// Background media scrubber. The scrub loop is pure policy: it patrols
// closed groups oldest-first and queues the ones whose retention age or
// deep-read-retry pressure crossed a threshold onto scrubQ. The actual
// data movement rides the GC machinery — launchVictims drains scrubQ
// ahead of cost-benefit victims, so rewrites flow through moveValid into
// the cold (GC) write stream and grown-bad retirement reuses the erase
// failure path. That keeps every in-flight invariant (gcInFlight bounds,
// position ownership) in one place.

import (
	"time"

	"repro/internal/ocssd"
	"repro/internal/sim"
)

func (k *Pblk) scrubOn() bool { return k.cfg.ScrubInterval > 0 }

// scrubLoop parks on scrubKick between sweeps; a sweep never blocks.
// Kicks arrive from group closes, freed groups, deep-retry pressure
// crossing the threshold, Stop/Crash, and the single armed pacing timer.
func (k *Pblk) scrubLoop(p *sim.Proc) {
	defer k.scrubDone.Signal()
	for !k.stopping && !k.scrubStopping {
		next := k.scrubSweep()
		k.scrubKick.Rearm()
		k.armScrubTimer(next)
		p.Wait(k.scrubKick)
	}
}

// scrubDue reports whether a closed group needs a refresh now, and
// whether retry pressure (rather than retention age) drove the decision.
func (k *Pblk) scrubDue(g *group, now int64) (due, retryDriven bool) {
	if t := k.cfg.ScrubRetryThreshold; t > 0 && g.retryHints >= t {
		return true, true
	}
	if a := int64(k.cfg.ScrubRetentionAge); a > 0 && now-g.closedAt >= a {
		return true, false
	}
	return false, false
}

// scrubGroupsPerSweep bounds the groups one patrol interval queues.
const scrubGroupsPerSweep = 1

// scrubSweep queues up to scrubGroupsPerSweep due groups and returns the
// absolute sim time the loop should next wake at (0: no timer needed,
// the next kick will resume us).
func (k *Pblk) scrubSweep() int64 {
	if k.stopping || k.scrubStopping || k.crashed {
		return 0
	}
	now := int64(k.env.Now())
	if k.freeGroups <= k.gcStartGroups() {
		// Space pressure: GC owns the media until it frees groups;
		// returnFreeGroup kicks us when the pressure clears.
		return 0
	}
	// Stale open groups (slow-filling cold streams) cannot be patrolled in
	// place: mark them and wake their lane writers, which fold them closed
	// into the patrol population. The mark keeps the deadline timer and
	// victim picker off them while the fold is in flight; noteGroupClosed
	// clears it.
	for _, s := range k.slots {
		wake := false
		for _, g := range s.grp {
			if g != nil && !g.scrubQueued && k.openStale(g, now) {
				g.scrubQueued = true
				wake = true
			}
		}
		if wake {
			s.wake()
		}
	}
	if wait := k.lastScrubNS + int64(k.cfg.ScrubInterval) - now; wait > 0 {
		if k.scrubWorkDue(now) {
			return now + wait
		}
		return k.nextRetentionDeadline(now)
	}
	queued := 0
	for queued < scrubGroupsPerSweep {
		g, retryDriven := k.pickScrubVictim(now)
		if g == nil {
			break
		}
		g.scrubQueued = true
		k.scrubQ.Push(g.id)
		if retryDriven {
			k.Stats.ScrubRetryRefreshes++
		} else {
			k.Stats.ScrubAgeRefreshes++
		}
		queued++
	}
	if queued > 0 {
		k.lastScrubNS = now
		k.gcKick.Signal()
		return now + int64(k.cfg.ScrubInterval)
	}
	return k.nextRetentionDeadline(now)
}

// openStale reports whether an open group's retention clock (started at
// openGroup) has crossed the scrub age threshold.
func (k *Pblk) openStale(g *group, now int64) bool {
	a := int64(k.cfg.ScrubRetentionAge)
	return a > 0 && g.state == stOpen && g.closedAt > 0 && now-g.closedAt >= a
}

// scrubWorkDue reports whether any closed group is already due.
func (k *Pblk) scrubWorkDue(now int64) bool {
	for _, g := range k.groups {
		if g.state != stClosed || g.scrubQueued {
			continue
		}
		if due, _ := k.scrubDue(g, now); due {
			return true
		}
	}
	return false
}

// pickScrubVictim returns the oldest-closed due group not yet queued.
func (k *Pblk) pickScrubVictim(now int64) (victim *group, retryDriven bool) {
	for _, g := range k.groups {
		if g.state != stClosed || g.scrubQueued {
			continue
		}
		due, retry := k.scrubDue(g, now)
		if !due {
			continue
		}
		if victim == nil || g.closedAt < victim.closedAt {
			victim, retryDriven = g, retry
		}
	}
	return victim, retryDriven
}

// nextRetentionDeadline returns the earliest future time a closed or
// open group ages past ScrubRetentionAge, or 0 when no timer is needed.
// Groups already marked scrubQueued are excluded — their handling is in
// flight, and re-arming on them would spin the timer at 1ns granularity.
func (k *Pblk) nextRetentionDeadline(now int64) int64 {
	age := int64(k.cfg.ScrubRetentionAge)
	if age <= 0 {
		return 0
	}
	var oldest int64 = -1
	for _, g := range k.groups {
		if (g.state != stClosed && g.state != stOpen) || g.scrubQueued || g.closedAt == 0 {
			continue
		}
		if oldest < 0 || g.closedAt < oldest {
			oldest = g.closedAt
		}
	}
	if oldest < 0 {
		return 0
	}
	at := oldest + age
	if at <= now {
		at = now + 1
	}
	return at
}

// armScrubTimer schedules a one-shot wakeup at absolute time `at`. At
// most one timer is outstanding; a pending timer holds env.Run open,
// which is why the scrubber is opt-in and documented to require Stop.
func (k *Pblk) armScrubTimer(at int64) {
	if at <= 0 || k.scrubTimer || k.stopping || k.scrubStopping {
		return
	}
	d := time.Duration(at - int64(k.env.Now()))
	if d < 1 {
		d = 1
	}
	k.scrubTimer = true
	k.env.Schedule(d, func() {
		k.scrubTimer = false
		if !k.stopping && !k.scrubStopping {
			k.scrubKick.Signal()
		}
	})
}

// noteGroupClosed runs when a group transitions to stClosed (write-path
// close, recovery scan). Write-path groups keep the retention stamp from
// openGroup — their oldest data aged since then — while groups
// materialized by recovery (closedAt zero) start the clock at mount.
func (k *Pblk) noteGroupClosed(g *group) {
	if g.closedAt == 0 {
		g.closedAt = int64(k.env.Now())
	}
	g.scrubQueued = false // a stale-open fold-close is complete; patrol may queue it
	if k.scrubOn() {
		k.scrubKick.Signal()
	}
}

// noteReadRetryPressure harvests the device's relocate-advised bits from
// a read completion and charges them to the owning groups. Called only
// when comp.Relocate != 0, so healthy media pays nothing.
func (k *Pblk) noteReadRetryPressure(comp *ocssd.Completion, c *readChunk) {
	for j := range c.vec.Addrs {
		if comp.Relocate&(1<<uint(j)) == 0 {
			continue
		}
		g := k.groupOf(c.vec.Addrs[j])
		g.retryHints++
		if k.scrubOn() && g.state == stClosed && k.cfg.ScrubRetryThreshold > 0 &&
			g.retryHints == k.cfg.ScrubRetryThreshold {
			k.scrubKick.Signal()
		}
	}
}
