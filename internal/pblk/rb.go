package pblk

import (
	"repro/internal/blockdev"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// L2P entry encoding: the table holds either nothing, a pointer into the
// write buffer (cacheline, paper §4.2.1), or a media PPA.
const (
	l2pUnmapped uint64 = 0
	l2pCacheBit uint64 = 1 << 63
	l2pMediaBit uint64 = 1 << 62
)

func cacheEntry(pos uint64) uint64 { return pos | l2pCacheBit }

func (k *Pblk) mediaEntry(a ppa.Addr) uint64 { return k.fmtr.Encode(a) | l2pMediaBit }

func isCache(v uint64) bool { return v&l2pCacheBit != 0 }
func isMedia(v uint64) bool { return v&l2pCacheBit == 0 && v&l2pMediaBit != 0 }

func cachePos(v uint64) uint64 { return v &^ l2pCacheBit }

func (k *Pblk) mediaAddr(v uint64) ppa.Addr { return k.fmtr.Decode(v &^ l2pMediaBit) }

// groupOfEntry returns the group a media entry maps into, read from the
// packed PU and block fields without decoding the address.
func (k *Pblk) groupOfEntry(v uint64) *group {
	a := v &^ l2pMediaBit
	return k.groupAt(k.fmtr.GlobalPUOf(a), k.fmtr.BlockOf(a))
}

// entryState is the lifecycle of one ring-buffer entry.
type entryState uint8

const (
	esBuffered  entryState = iota // produced, awaiting mapping
	esSubmitted                   // mapped to a PPA, write in flight
	esDone                        // programmed and finalized; freeable
)

// padLBA marks padding entries (the paper's "unmapped data").
const padLBA int64 = -1

// Write streams (paper §4.2.3 separates user data from GC rewrites so hot
// and cold data never share a block): every ring entry belongs to exactly
// one stream, the dispatcher cuts stream-homogeneous chunks, and each lane
// keeps one open block group per stream. Application writes hinted cold
// (blockdev.HintCold: SSTable flush and compaction output) ride the GC
// stream, so long-lived data stays out of hot user blocks.
const (
	streamUser = 0
	streamGC   = 1
	numStreams = 2
)

func streamName(st int) string {
	if st == streamGC {
		return "gc"
	}
	return "user"
}

// rbEntry is one sector in the write buffer: the paper's data buffer entry
// plus its context-buffer metadata, fused.
type rbEntry struct {
	pos  uint64
	lba  int64
	data []byte
	// ppa is the packed address the entry was mapped to, set when its unit
	// is submitted.
	ppa uint64
	// stamp is the global write-order stamp drawn at ring admission. It is
	// persisted per sector in the OOB area and the close metadata, and scan
	// recovery replays sectors in stamp order — so an overwrite admitted
	// later always replays later, no matter which stream or lane programs
	// it first.
	stamp uint64
	// origin is the group a GC rewrite was copied from, -1 for user I/O
	// and padding; used to detect when a victim is fully moved.
	origin int
	state  entryState
	isGC   bool
	// hint is the write-lifetime hint the sector was admitted with
	// (blockdev.HintNone/HintCold); streamOf routes on it.
	hint uint8
}

// ring is the circular write buffer (paper §4.2.1): multiple producers
// (user writes, GC) feed it globally — admission ordering and rate
// limiting stay centralized — while consumption is sharded twice over:
// the dispatch cursor sorts entries into per-stream pending lists, cut
// into unit-sized chunks for the per-lane writer queues, and each lane
// advances its own sub-queues independently. Positions are monotonically
// increasing; index = pos % capacity.
type ring struct {
	e       []rbEntry
	head    uint64 // next position to produce
	disp    uint64 // next position to scan into a stream pending list
	tail    uint64 // next position to free; all below are done
	userIn  int    // user entries currently in the ring
	gcIn    int    // GC entries currently in the ring
	spaceEv *sim.Event
	// freeEntry, when set, runs as the tail frees an entry, before its
	// data reference drops — the hook that recycles payload buffers.
	freeEntry func(*rbEntry)
}

func (r *ring) init(env *sim.Env, capacity int) {
	r.e = make([]rbEntry, capacity)
	r.spaceEv = env.NewEvent()
}

func (r *ring) capacity() int { return len(r.e) }

// inRing returns occupied entries (produced, not yet freed).
func (r *ring) inRing() int { return int(r.head - r.tail) }

// free returns available entries.
func (r *ring) free() int { return len(r.e) - r.inRing() }

func (r *ring) at(pos uint64) *rbEntry { return &r.e[pos%uint64(len(r.e))] }

// produce appends one entry and returns its position. The caller must have
// checked free space and drawn the admission stamp.
func (r *ring) produce(lba int64, data []byte, isGC bool, origin int, stamp uint64, hint uint8) uint64 {
	pos := r.head
	e := r.at(pos)
	e.pos, e.lba, e.data, e.ppa, e.stamp = pos, lba, data, 0, stamp
	e.origin, e.state, e.isGC, e.hint = origin, esBuffered, isGC, hint
	r.head++
	if lba != padLBA {
		if isGC {
			r.gcIn++
		} else {
			r.userIn++
		}
	}
	return pos
}

// produce admits one sector into the ring under the next global write
// stamp. Stamps are drawn here — at admission, in ring-position order —
// so stamp order always equals admission order across streams and lanes.
func (k *Pblk) produce(lba int64, data []byte, isGC bool, origin int, hint uint8) uint64 {
	return k.rb.produce(lba, data, isGC, origin, k.nextStamp(), hint)
}

// waitSpace blocks the producing process until at least one free slot
// exists. Callers re-check their own admission condition after waking.
func (r *ring) waitSpace(p *sim.Proc) {
	r.spaceEv.Rearm()
	p.Wait(r.spaceEv)
}

// waitSpaceFn is the continuation form of waitSpace: fn runs once space is
// signalled, in the same FIFO order as blocked processes. Callers re-check
// their admission condition when fn runs.
func (r *ring) waitSpaceFn(fn func()) {
	r.spaceEv.Rearm()
	r.spaceEv.OnFire(fn)
}

func (r *ring) signalSpace() { r.spaceEv.Signal() }

// advanceTail frees contiguous done entries and returns how many were
// released. Lanes complete units out of order with respect to each other,
// so the tail simply stops at the first entry any lane still has buffered
// or in flight; a stalled lane holds the tail but never blocks siblings
// from programming.
func (r *ring) advanceTail() int {
	n := 0
	for r.tail < r.head {
		e := r.at(r.tail)
		if e.state != esDone {
			break
		}
		if e.lba != padLBA {
			if e.isGC {
				r.gcIn--
			} else {
				r.userIn--
			}
		}
		if r.freeEntry != nil {
			r.freeEntry(e)
		}
		e.data = nil
		r.tail++
		n++
	}
	if n > 0 {
		r.signalSpace()
	}
	return n
}

// nextStamp returns the next global write-order stamp.
func (k *Pblk) nextStamp() uint64 {
	k.unitStamp++
	return k.unitStamp
}

// streamOf returns the write stream an entry belongs to: GC rewrites and
// cold-hinted writes ride the GC stream, everything else the user stream.
// With stream separation disabled (Config.SingleStream) everything rides
// the user stream, as the pre-stream datapath did — kept for
// write-amplification baselines.
func (k *Pblk) streamOf(e *rbEntry) int {
	if !k.cfg.SingleStream && (e.isGC || e.hint == blockdev.HintCold) {
		return streamGC
	}
	return streamUser
}

// entryIsCurrent reports whether the L2P still points at this buffer entry,
// i.e. it has not been superseded by a newer write of the same LBA.
func (k *Pblk) entryIsCurrent(e *rbEntry) bool {
	if e.lba == padLBA {
		return false
	}
	v := k.l2p[e.lba]
	return isCache(v) && cachePos(v) == e.pos
}
