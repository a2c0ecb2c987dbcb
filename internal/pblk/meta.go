package pblk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// On-media metadata formats (paper §4.2.2). All metadata carries a CRC
// ("all metadata is persisted together with its CRC and relevant counters
// to guarantee consistency"). Close metadata is version 2: stamps are
// per data sector (admission order), not per write unit, and the header
// carries the write stream the group was opened for.
const (
	openMagic  uint64 = 0x314e504f4b4c4250 // "PBLKOPN1"
	closeMagic uint64 = 0x32534c434b4c4250 // "PBLKCLS2"
	snapMagic  uint64 = 0x3150414e534b4250 // "PBKSNAP1"

	oobBytes      = 16
	openMarkBytes = 44
)

const lbaNone = ^uint64(0)

func encLBA(lba int64) uint64 {
	if lba < 0 {
		return lbaNone
	}
	return uint64(lba)
}

func decLBA(v uint64) int64 {
	if v == lbaNone {
		return padLBA
	}
	return int64(v)
}

var le = binary.LittleEndian

// encodeOOB packs one sector's out-of-band metadata: the logical address,
// a valid bit (paper: "we store the logical addresses that correspond to
// physical addresses on the page together with a bit that signals that the
// page is valid"), and the sector's global admission stamp. The stamp
// totally orders sectors across concurrently open block groups — several
// per PU, one per write stream — which scan recovery needs to replay
// overwrites correctly (groups fill concurrently on different lanes and
// streams, so group sequence numbers alone cannot order sectors).
//
// Layout in 16 bytes: lba 48 bits, stamp 48 bits, flags+magic, a zero
// byte, and the low 16 bits of the CRC-32C of the first 14.
func (k *Pblk) encodeOOB(lba int64, valid bool, stamp uint64) []byte {
	b := make([]byte, oobBytes)
	k.encodeOOBInto(b, lba, valid, stamp)
	return b
}

// encodeOOBInto writes one sector's OOB record into b (len >= oobBytes);
// the allocation-free form for the pooled write-unit path.
func (k *Pblk) encodeOOBInto(b []byte, lba int64, valid bool, stamp uint64) {
	var flags uint64 = oobFlagMagic
	if valid {
		flags |= 1
	}
	if lba == padLBA {
		flags |= 2
	}
	// The record is stored as two words, because the check reads it back a
	// word at a time and a word load of bytes stored one by one waits for
	// the stores to drain. Bytes 14-15 are stored zero and then overwritten.
	le.PutUint64(b[0:8], encLBA(lba)&lba48None|stamp<<48)
	le.PutUint64(b[8:16], stamp>>16&(1<<32-1)|flags<<32)
	le.PutUint16(b[14:16], oobCheck(b))
}

const oobFlagMagic = 0xA0 // high nibble marks pblk-owned OOB

// castagnoli is the CRC-32C table. The OOB record is written and checked
// once per sector, and at 14 bytes the IEEE polynomial runs Go's
// byte-at-a-time loop, while Castagnoli uses the CPU's CRC32 instruction
// where it has one (SSE4.2 on amd64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// oobCheck is an OOB record's check value. Its 16 bits still catch every
// single-bit error in the 14 bytes it covers.
func oobCheck(b []byte) uint16 { return uint16(crc32.Checksum(b[0:14], castagnoli)) }

func get48(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 |
		uint64(b[3])<<24 | uint64(b[4])<<32 | uint64(b[5])<<40
}

const lba48None = (1 << 48) - 1

// parseOOB inverts encodeOOB; ok is false for corrupt or foreign OOB.
func parseOOB(b []byte) (lba int64, stamp uint64, valid bool, ok bool) {
	if len(b) < oobBytes {
		return 0, 0, false, false
	}
	if b[12]&0xF0 != oobFlagMagic {
		return 0, 0, false, false
	}
	if le.Uint16(b[14:16]) != oobCheck(b) {
		return 0, 0, false, false
	}
	l := get48(b[0:6])
	if l == lba48None {
		lba = padLBA
	} else {
		lba = int64(l)
	}
	return lba, get48(b[6:12]), b[12]&1 != 0, true
}

// encodeOpenMarkInto writes the first-page record — sequence number and a
// reference to the previously opened block — into b (len >= sector size,
// already zeroed past the mark).
func (k *Pblk) encodeOpenMarkInto(b []byte, g *group) {
	le.PutUint64(b[0:8], openMagic)
	le.PutUint64(b[8:16], uint64(g.id))
	le.PutUint64(b[16:24], g.seq)
	le.PutUint64(b[24:32], encLBA(g.prev))
	le.PutUint32(b[32:36], crc32.ChecksumIEEE(b[0:32]))
}

func parseOpenMark(b []byte) (gid int, seq uint64, prev int64, ok bool) {
	if len(b) < openMarkBytes-8 {
		return 0, 0, 0, false
	}
	if le.Uint64(b[0:8]) != openMagic {
		return 0, 0, 0, false
	}
	if le.Uint32(b[32:36]) != crc32.ChecksumIEEE(b[0:32]) {
		return 0, 0, 0, false
	}
	return int(le.Uint64(b[8:16])), le.Uint64(b[16:24]), decLBA(le.Uint64(b[24:32])), true
}

// closeMetaSizeFor returns the serialized size of a group's close
// metadata: header (40 B) + one encoded LBA and one admission stamp per
// data sector + trailing CRC.
func (k *Pblk) closeMetaSizeFor(dataSectors int) int {
	return 40 + 16*dataSectors + 4
}

// closeMetaUnits solves for the number of trailing units reserved for close
// metadata; the metadata size itself depends on how many data sectors
// remain, so iterate to a fixed point.
func (k *Pblk) closeMetaUnits() int {
	unitBytes := k.unitSectors * k.geo.SectorSize
	kUnits := 1
	for {
		dataSectors := (k.unitsPerGroup - 1 - kUnits) * k.unitSectors
		if dataSectors < 0 {
			return kUnits
		}
		need := (k.closeMetaSizeFor(dataSectors) + unitBytes - 1) / unitBytes
		if need <= kUnits {
			return kUnits
		}
		kUnits = need
	}
}

// encodeCloseMetaInto serializes the block-level FTL log into a
// caller-owned buffer (len == closeMetaSizeFor(dataSectors), already
// zeroed): the portion of the L2P map corresponding to data in the block,
// the per-sector admission stamps (for globally ordered replay), the write
// stream, and the same sequence number as the open mark.
func (k *Pblk) encodeCloseMetaInto(b []byte, g *group, lbas []int64, stamps []uint64) []byte {
	size := len(b)
	le.PutUint64(b[0:8], closeMagic)
	le.PutUint64(b[8:16], uint64(g.id))
	le.PutUint64(b[16:24], g.seq)
	le.PutUint32(b[24:28], uint32(k.dataSectors))
	b[28] = g.stream
	le.PutUint32(b[36:40], crc32.ChecksumIEEE(b[0:36]))
	off := 40
	for i := 0; i < k.dataSectors; i++ {
		v := lbaNone
		if i < len(lbas) {
			v = encLBA(lbas[i])
		}
		le.PutUint64(b[off:off+8], v)
		off += 8
	}
	for i := 0; i < k.dataSectors; i++ {
		var s uint64
		if i < len(stamps) {
			s = stamps[i]
		}
		le.PutUint64(b[off:off+8], s)
		off += 8
	}
	le.PutUint32(b[size-4:size], crc32.ChecksumIEEE(b[40:size-4]))
	return b
}

// parseCloseMeta decodes close metadata b, appending the group's LBAs and
// stamps to lbas[:0] and stamps[:0].
func (k *Pblk) parseCloseMeta(b []byte, lbas []int64, stamps []uint64) (seq uint64, stream uint8, _ []int64, _ []uint64, ok bool) {
	if len(b) < 44 {
		return 0, 0, nil, nil, false
	}
	if le.Uint64(b[0:8]) != closeMagic {
		return 0, 0, nil, nil, false
	}
	if le.Uint32(b[36:40]) != crc32.ChecksumIEEE(b[0:36]) {
		return 0, 0, nil, nil, false
	}
	count := int(le.Uint32(b[24:28]))
	if count != k.dataSectors || len(b) < k.closeMetaSizeFor(count) {
		return 0, 0, nil, nil, false
	}
	size := k.closeMetaSizeFor(count)
	if le.Uint32(b[size-4:size]) != crc32.ChecksumIEEE(b[40:size-4]) {
		return 0, 0, nil, nil, false
	}
	lbas, stamps = lbas[:0], stamps[:0]
	for off := 40; off < 40+8*count; off += 8 {
		lbas = append(lbas, decLBA(le.Uint64(b[off:off+8])))
		stamps = append(stamps, le.Uint64(b[off+8*count:off+8*count+8]))
	}
	return le.Uint64(b[16:24]), b[28], lbas, stamps, true
}

// metaScratch is the pooled context of one metadata-unit write — a group
// open mark or one close-metadata unit: the vector, its slices, a payload
// arena, one shared pad-OOB record, and the completion callback bound
// once, so metadata submission allocates nothing in steady state.
// eraseGroup borrows one for its vector and address slice.
type metaScratch struct {
	k        *Pblk
	g        *group
	close    bool // close-meta unit (vs open mark)
	vec      ocssd.Vector
	addrs    []ppa.Addr
	data     [][]byte
	oob      [][]byte
	oobArena []byte
	payload  []byte
	cbFn     func(*ocssd.Completion)
}

func (k *Pblk) putMetaScratch(ms *metaScratch) {
	ms.g = nil
	ms.vec.Addrs, ms.vec.Data, ms.vec.OOB = nil, nil, nil
	k.metaScratches.Put(ms)
}

// prep sizes the scratch for one unit on group g: payload sectors are
// zeroed, data pointers start nil (synthetic), and every sector's OOB
// points at one shared pad record stamped with stamp.
func (ms *metaScratch) prep(g *group, unit int, stamp uint64) {
	k := ms.k
	ms.g = g
	ms.addrs = k.unitAddrsInto(ms.addrs, g, unit)
	n := len(ms.addrs)
	ss := k.geo.SectorSize
	if cap(ms.data) < n {
		ms.data = make([][]byte, n)
		ms.oob = make([][]byte, n)
	}
	ms.data = ms.data[:n]
	ms.oob = ms.oob[:n]
	if len(ms.oobArena) < oobBytes {
		ms.oobArena = make([]byte, oobBytes)
	}
	if len(ms.payload) < n*ss {
		ms.payload = make([]byte, n*ss)
	} else {
		clear(ms.payload[:n*ss])
	}
	k.encodeOOBInto(ms.oobArena, padLBA, false, stamp)
	for i := range ms.data {
		ms.data[i] = nil
		ms.oob[i] = ms.oobArena[:oobBytes]
	}
}

func (ms *metaScratch) submit() {
	ms.vec.Op = ocssd.OpWrite
	ms.vec.Addrs = ms.addrs
	ms.vec.Data = ms.data
	ms.vec.OOB = ms.oob
	ms.k.dev.Submit(&ms.vec, ms.cbFn)
}

func (ms *metaScratch) onProgrammed(c *ocssd.Completion) {
	k, g, isClose := ms.k, ms.g, ms.close
	if c.Failed() {
		// A failed open mark or close-meta unit is treated like any write
		// failure: the group is suspect and will be retired once drained.
		k.markSuspect(g)
	}
	k.putMetaScratch(ms)
	k.dev.Recycle(c)
	if isClose {
		g.metaRemaining--
		if g.metaRemaining == 0 {
			if g.state == stOpen {
				g.state = stClosed
				k.noteGroupClosed(g)
			}
			k.rb.advanceTail()
			k.checkFlushes()
			k.maybeKickGC()
			k.notifyState()
		}
	}
}

// submitCloseMeta writes the close metadata into the group's trailing
// units. Submission is asynchronous; the per-PU FIFO orders it after the
// group's data, and the group becomes GC-eligible (closed) only once every
// metadata unit is programmed.
func (k *Pblk) submitCloseMeta(p *sim.Proc, g *group) {
	size := k.closeMetaSizeFor(k.dataSectors)
	if cap(k.closeMetaBuf) < size {
		k.closeMetaBuf = make([]byte, size)
	} else {
		k.closeMetaBuf = k.closeMetaBuf[:size]
		clear(k.closeMetaBuf)
	}
	meta := k.encodeCloseMetaInto(k.closeMetaBuf, g, g.lbas, g.stamps)
	k.lbaLists.Put(g.lbas[:0])
	k.stampLists.Put(g.stamps[:0])
	g.lbas, g.stamps = nil, nil
	ss := k.geo.SectorSize
	unitBytes := k.unitSectors * ss
	g.metaRemaining = k.metaUnits
	for m := 0; m < k.metaUnits; m++ {
		unit := k.firstMetaUnit() + m
		ms := k.metaScratches.Get()
		ms.close = true
		ms.prep(g, unit, k.unitStamp)
		for s := range ms.addrs {
			off := m*unitBytes + s*ss
			if off < len(meta) {
				sec := ms.payload[s*ss : (s+1)*ss]
				copy(sec, meta[off:])
				ms.data[s] = sec
			}
		}
		ms.submit()
	}
	g.nextUnit = k.unitsPerGroup
}

// readUnits reads n whole units of g, starting at unit first, into buf,
// grown as needed; ok is false as soon as any sector fails to read.
func (k *Pblk) readUnits(p *sim.Proc, g *group, first, n int, buf []byte) (_ []byte, ok bool) {
	ss := k.geo.SectorSize
	size := n * k.unitSectors * ss
	buf = slices.Grow(buf[:0], size)[:size]
	clear(buf) // a sector read back without data reads as zeros
	ms := k.metaScratches.Get()
	defer k.putMetaScratch(ms)
	for u := 0; u < n; u++ {
		ms.addrs = k.unitAddrsInto(ms.addrs, g, first+u)
		ms.vec.Op, ms.vec.Addrs = ocssd.OpRead, ms.addrs
		c := k.dev.Do(p, &ms.vec)
		failed := c.FirstErr() != nil
		if !failed {
			for s, d := range c.Data {
				copy(buf[(u*k.unitSectors+s)*ss:], d)
			}
		}
		// The sector contents were copied into buf above; the completion
		// container can go back to the device pool.
		k.dev.Recycle(c)
		if failed {
			return buf, false
		}
	}
	return buf, true
}

// metaBufs holds one read of a group's close metadata: the raw units and
// the decoded lists. A caller that keeps nothing it read reuses them.
type metaBufs struct {
	raw    []byte
	lbas   []int64
	stamps []uint64
}

// readCloseMeta fetches and parses a group's close metadata from media
// into m.
func (k *Pblk) readCloseMeta(p *sim.Proc, g *group, m *metaBufs) (seq uint64, stream uint8, ok bool) {
	if m.raw, ok = k.readUnits(p, g, k.firstMetaUnit(), k.metaUnits, m.raw); !ok {
		return 0, 0, false
	}
	seq, stream, m.lbas, m.stamps, ok = k.parseCloseMeta(m.raw, m.lbas, m.stamps)
	return seq, stream, ok
}

// readGroupLBAs returns the logical address of every data sector in g, in
// mapping order: from close metadata when available, falling back to an
// OOB scan for groups that died before their metadata was written.
func (k *Pblk) readGroupLBAs(p *sim.Proc, g *group, m *metaBufs) []int64 {
	if _, _, ok := k.readCloseMeta(p, g, m); ok {
		return m.lbas
	}
	_, lbas, _ := k.scanGroupOOB(p, g)
	return lbas
}

// scanGroupOOB walks a group's data units in program order, harvesting the
// per-sector logical addresses and admission stamps from the OOB area. It
// returns the watermark (first unwritten unit), the LBA list for all
// scanned data sectors, and one stamp per scanned data sector (parallel
// to lbas).
func (k *Pblk) scanGroupOOB(p *sim.Proc, g *group) (watermark int, lbas []int64, stamps []uint64) {
	unit := 1
	for ; unit < k.unitsPerGroup; unit++ {
		addrs := k.unitAddrs(g, unit)
		c := k.dev.Do(p, &ocssd.Vector{Op: ocssd.OpRead, Addrs: addrs})
		if isUnwritten(c.Errs[0]) {
			k.dev.Recycle(c)
			break
		}
		if unit >= k.firstMetaUnit() {
			k.dev.Recycle(c)
			continue // metadata region reached; not data
		}
		for s := range addrs {
			lba := padLBA
			var stamp uint64
			if c.Errs[s] == nil {
				if l, st, valid, ok := parseOOB(c.OOB[s]); ok {
					stamp = st
					if valid {
						lba = l
					}
				}
			}
			lbas = append(lbas, lba)
			stamps = append(stamps, stamp)
		}
		// parseOOB extracts values; nothing retains c after this point.
		k.dev.Recycle(c)
	}
	return unit, lbas, stamps
}

func isUnwritten(err error) bool { return errors.Is(err, nand.ErrUnwritten) }

// ---- L2P snapshot (graceful shutdown) ----

// snapGroupBytes is one group's snapshot record: seq, state, stream.
const snapGroupBytes = 10

// snapshotSize is the byte length of a snapshot of n LBAs and ng groups:
// header, L2P table, group table and a trailing CRC.
func snapshotSize(n, ng int) int { return 48 + 8*n + snapGroupBytes*ng + 4 }

// snapshotBytes serializes the full FTL state: header, L2P table, and the
// group table (seq, state, stream).
func (k *Pblk) snapshotBytes() []byte {
	n := int(k.capacityLBAs)
	size := snapshotSize(n, len(k.groups))
	b := make([]byte, size)
	le.PutUint64(b[0:8], snapMagic)
	le.PutUint64(b[8:16], uint64(n))
	le.PutUint64(b[16:24], uint64(len(k.groups)))
	le.PutUint64(b[24:32], k.seqCounter)
	le.PutUint64(b[32:40], k.unitStamp)
	le.PutUint32(b[44:48], crc32.ChecksumIEEE(b[0:44]))
	off := 48
	for _, v := range k.l2p {
		le.PutUint64(b[off:off+8], v)
		off += 8
	}
	for _, g := range k.groups {
		le.PutUint64(b[off:off+8], g.seq)
		b[off+8] = byte(g.state)
		b[off+9] = g.stream
		off += snapGroupBytes
	}
	le.PutUint32(b[size-4:size], crc32.ChecksumIEEE(b[48:size-4]))
	return b
}

func (k *Pblk) applySnapshot(b []byte) error {
	if len(b) < 48 || le.Uint64(b[0:8]) != snapMagic {
		return fmt.Errorf("pblk: no snapshot")
	}
	if le.Uint32(b[44:48]) != crc32.ChecksumIEEE(b[0:44]) {
		return fmt.Errorf("pblk: snapshot header corrupt")
	}
	n := int(le.Uint64(b[8:16]))
	ng := int(le.Uint64(b[16:24]))
	if n != int(k.capacityLBAs) || ng != len(k.groups) {
		return fmt.Errorf("pblk: snapshot shape mismatch")
	}
	size := snapshotSize(n, ng)
	if len(b) < size || le.Uint32(b[size-4:size]) != crc32.ChecksumIEEE(b[48:size-4]) {
		return fmt.Errorf("pblk: snapshot body corrupt")
	}
	k.seqCounter = le.Uint64(b[24:32])
	k.unitStamp = le.Uint64(b[32:40])
	off := 48
	for i := range k.l2p {
		k.l2p[i] = le.Uint64(b[off : off+8])
		off += 8
	}
	for _, g := range k.groups {
		g.seq = le.Uint64(b[off : off+8])
		st := groupState(b[off+8])
		g.stream = b[off+9]
		off += snapGroupBytes
		if g.state == stSys || g.state == stBad {
			continue
		}
		switch st {
		case stOpen, stGC:
			// The group holds data but was never closed; treat it as
			// closed — GC falls back to an OOB scan for its reverse map.
			g.state = stClosed
			g.nextUnit = k.unitsPerGroup
			// Retention clock restarts at mount: stamping the true close
			// time is not persisted, and a zero stamp would trigger a
			// refresh storm right after recovery. Genuinely aged data is
			// still caught by the read-retry pressure path.
			g.closedAt = int64(k.env.Now())
		case stSuspect:
			g.state = stSuspect
			k.suspects.Push(g.id)
		default:
			g.state = st
			if st == stClosed {
				g.nextUnit = k.unitsPerGroup
				g.closedAt = int64(k.env.Now())
			}
		}
	}
	return nil
}

// sysGroup returns the reserved snapshot group.
func (k *Pblk) sysGroup() *group { return k.groups[0] }

// sysUnitAddrs returns the sector addresses of one unit in the snapshot
// area.
func (k *Pblk) sysUnitAddrs(unit int) []ppa.Addr {
	return k.unitAddrs(k.sysGroup(), unit)
}

// writeSnapshot persists the FTL snapshot into the reserved system group
// (paper §4.2.2: a full copy of the L2P stored on power-down).
func (k *Pblk) writeSnapshot(p *sim.Proc) error {
	snap := k.snapshotBytes()
	ss := k.geo.SectorSize
	unitBytes := k.unitSectors * ss
	units := (len(snap) + unitBytes - 1) / unitBytes
	if units > k.unitsPerGroup {
		return fmt.Errorf("pblk: snapshot (%d B) exceeds system group capacity (%d B)",
			len(snap), k.unitsPerGroup*unitBytes)
	}
	// Erase, then program sequentially.
	if err := k.eraseGroup(p, k.sysGroup()); err != nil {
		return fmt.Errorf("pblk: snapshot area erase failed: %v", err)
	}
	for u := 0; u < units; u++ {
		addrs := k.sysUnitAddrs(u)
		data := make([][]byte, len(addrs))
		for s := range addrs {
			off := u*unitBytes + s*ss
			if off < len(snap) {
				sec := make([]byte, ss)
				copy(sec, snap[off:])
				data[s] = sec
			}
		}
		if c := k.dev.Do(p, &ocssd.Vector{Op: ocssd.OpWrite, Addrs: addrs, Data: data}); c.Failed() {
			return fmt.Errorf("pblk: snapshot write failed: %v", c.FirstErr())
		}
	}
	return nil
}

// loadSnapshot attempts to restore FTL state from the system group. On
// success the snapshot is invalidated (erased) so that a later crash falls
// back to scan recovery rather than replaying stale state.
func (k *Pblk) loadSnapshot(p *sim.Proc) bool {
	unitBytes := k.unitSectors * k.geo.SectorSize
	// Header first.
	first := k.dev.Do(p, &ocssd.Vector{Op: ocssd.OpRead, Addrs: k.sysUnitAddrs(0)[:1]})
	if first.Errs[0] != nil || first.Data[0] == nil || le.Uint64(first.Data[0][0:8]) != snapMagic {
		return false
	}
	n := int(le.Uint64(first.Data[0][8:16]))
	ng := int(le.Uint64(first.Data[0][16:24]))
	size := snapshotSize(n, ng)
	if n != int(k.capacityLBAs) || ng != len(k.groups) || size <= 0 {
		return false
	}
	buf, ok := k.readUnits(p, k.sysGroup(), 0, (size+unitBytes-1)/unitBytes, nil)
	if !ok || k.applySnapshot(buf[:size]) != nil {
		return false
	}
	// Invalidate: future recoveries must not trust this snapshot. A failed
	// erase leaves the block bad, which the next mount's header read sees.
	_ = k.eraseGroup(p, k.sysGroup())
	return true
}
