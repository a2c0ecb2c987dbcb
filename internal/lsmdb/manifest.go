package lsmdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/sim"
)

// The manifest makes level state crash-consistent: two fixed slots at the
// front of the device are written alternately (slot = version mod 2), each
// a CRC-protected snapshot of the tree — table list per level, WAL tail,
// flushed sequence. Open reads both and takes the newer valid one, so a
// torn manifest write falls back to the previous committed state and the
// WAL replays the difference. This is the same commit discipline pblk
// uses for its close meta, one layer up.
//
// Slot layout:
//
//	magic u64, version u64, nextTableID u64, flushedSeq u64, walTail u64,
//	totalLen u32, nLevels u32,
//	per level: count u32, then per table:
//	  id u64, off u64, size u64, count u64, minLen u16, maxLen u16,
//	  minKey, maxKey
//	crc u32 over everything before it (stored at totalLen-4)

const (
	manifestMagic    = 0x4C534D4D414E4946 // "LSMMANIF"
	manifestSlotSize = 256 << 10
	manifestHdrLen   = 48
)

// slots is the number of uniform slots a table image of size bytes spans:
// one for a compaction output, whose size the slot is sized for, more for
// the flush of a memtable larger than TableTargetSize.
func (db *DB) slots(size int64) int { return int((size + db.tableSlot - 1) / db.tableSlot) }

// allocSlots reserves the lowest run of n free slots and returns its
// offset: the choice first fit makes over the area's free runs.
func (db *DB) allocSlots(n int) (int64, error) {
	run := 0
	for i, used := range db.slotUsed {
		if run++; used {
			run = 0
		} else if run == n {
			off := db.areaBase + int64(i+1-n)*db.tableSlot
			db.setSlots(off, n, true)
			return off, nil
		}
	}
	return 0, fmt.Errorf("lsmdb: table area exhausted allocating %d slots (area %d slots, levelBytes %v)", n, len(db.slotUsed), db.levelBytes)
}

// setSlots marks the n slots from offset off used or free.
func (db *DB) setSlots(off int64, n int, used bool) {
	i := int((off - db.areaBase) / db.tableSlot)
	for j := i; j < i+n; j++ {
		db.slotUsed[j] = used
	}
}

// commitManifest serializes the current tree state into the next slot and
// flushes. Serialized through manifestMu: the flusher and compactor can
// both commit, and slot writes must not interleave.
func (db *DB) commitManifest(p *sim.Proc) error {
	db.manifestMu.Acquire(p)
	defer db.manifestMu.Release()
	db.manifestVer++
	buf := db.manifestBuf[:0]
	var h [manifestHdrLen]byte
	binary.LittleEndian.PutUint64(h[0:8], manifestMagic)
	binary.LittleEndian.PutUint64(h[8:16], db.manifestVer)
	binary.LittleEndian.PutUint64(h[16:24], db.nextTableID)
	binary.LittleEndian.PutUint64(h[24:32], db.flushedSeq)
	binary.LittleEndian.PutUint64(h[32:40], uint64(db.walTail))
	// totalLen at [40:44] patched below.
	binary.LittleEndian.PutUint32(h[44:48], uint32(len(db.levels)))
	buf = append(buf, h[:]...)
	var scratch [28]byte
	for _, lv := range db.levels {
		binary.LittleEndian.PutUint32(scratch[0:4], uint32(len(lv)))
		buf = append(buf, scratch[0:4]...)
		for _, t := range lv {
			binary.LittleEndian.PutUint64(scratch[0:8], t.id)
			binary.LittleEndian.PutUint64(scratch[8:16], uint64(t.off))
			binary.LittleEndian.PutUint64(scratch[16:24], uint64(t.size))
			binary.LittleEndian.PutUint32(scratch[24:28], uint32(t.count))
			buf = append(buf, scratch[:28]...)
			binary.LittleEndian.PutUint16(scratch[0:2], uint16(len(t.minKey)))
			binary.LittleEndian.PutUint16(scratch[2:4], uint16(len(t.maxKey)))
			buf = append(buf, scratch[0:4]...)
			buf = append(buf, t.minKey...)
			buf = append(buf, t.maxKey...)
		}
	}
	totalLen := len(buf) + 4
	if int64(totalLen) > manifestSlotSize {
		return fmt.Errorf("lsmdb: manifest overflow: %d bytes", totalLen)
	}
	binary.LittleEndian.PutUint32(buf[40:44], uint32(totalLen))
	crc := crc32.ChecksumIEEE(buf)
	binary.LittleEndian.PutUint32(scratch[0:4], crc)
	buf = append(buf, scratch[0:4]...)
	wlen := db.sectorAlign(int64(len(buf)))
	buf = padTo(buf, int(wlen))
	db.manifestBuf = buf
	slot := int64(db.manifestVer % 2)
	if err := db.blk.Write(p, slot*manifestSlotSize, buf, wlen); err != nil {
		return err
	}
	return db.blk.Flush(p)
}

// decodeManifest parses one slot; ok is false for torn, foreign, or
// zeroed slots.
type manifestState struct {
	version     uint64
	nextTableID uint64
	flushedSeq  uint64
	walTail     int64
	levels      [][]*tableMeta
}

func decodeManifest(buf []byte) (st manifestState, ok bool) {
	if len(buf) < manifestHdrLen+4 {
		return st, false
	}
	if binary.LittleEndian.Uint64(buf[0:8]) != manifestMagic {
		return st, false
	}
	totalLen := int(binary.LittleEndian.Uint32(buf[40:44]))
	if totalLen < manifestHdrLen+4 || totalLen > len(buf) {
		return st, false
	}
	crc := binary.LittleEndian.Uint32(buf[totalLen-4 : totalLen])
	if crc32.ChecksumIEEE(buf[:totalLen-4]) != crc {
		return st, false
	}
	st.version = binary.LittleEndian.Uint64(buf[8:16])
	st.nextTableID = binary.LittleEndian.Uint64(buf[16:24])
	st.flushedSeq = binary.LittleEndian.Uint64(buf[24:32])
	st.walTail = int64(binary.LittleEndian.Uint64(buf[32:40]))
	nLevels := int(binary.LittleEndian.Uint32(buf[44:48]))
	if nLevels < 1 || nLevels > 16 {
		return st, false
	}
	off := manifestHdrLen
	body := buf[:totalLen-4]
	st.levels = make([][]*tableMeta, nLevels)
	for lv := 0; lv < nLevels; lv++ {
		if off+4 > len(body) {
			return st, false
		}
		n := int(binary.LittleEndian.Uint32(body[off : off+4]))
		off += 4
		for i := 0; i < n; i++ {
			if off+32 > len(body) {
				return st, false
			}
			t := &tableMeta{
				id:    binary.LittleEndian.Uint64(body[off : off+8]),
				off:   int64(binary.LittleEndian.Uint64(body[off+8 : off+16])),
				size:  int64(binary.LittleEndian.Uint64(body[off+16 : off+24])),
				count: int64(binary.LittleEndian.Uint32(body[off+24 : off+28])),
			}
			minLen := int(binary.LittleEndian.Uint16(body[off+28 : off+30]))
			maxLen := int(binary.LittleEndian.Uint16(body[off+30 : off+32]))
			off += 32
			if off+minLen+maxLen > len(body) {
				return st, false
			}
			t.minKey = append([]byte(nil), body[off:off+minLen]...)
			t.maxKey = append([]byte(nil), body[off+minLen:off+minLen+maxLen]...)
			off += minLen + maxLen
			st.levels[lv] = append(st.levels[lv], t)
		}
	}
	return st, true
}

// recover loads the newer valid manifest slot, reloads every live table's
// bloom filter and index from its footer, marks the tables' slots used,
// trims dead space, and replays the WAL.
func (db *DB) recover(p *sim.Proc) error {
	best := manifestState{}
	found := false
	slotBuf := db.getBlockBuf(int(manifestSlotSize))
	for slot := int64(0); slot < 2; slot++ {
		if err := db.blk.Read(p, slot*manifestSlotSize, slotBuf, manifestSlotSize); err != nil {
			return err
		}
		if st, ok := decodeManifest(slotBuf); ok && (!found || st.version > best.version) {
			best = st
			found = true
		}
	}
	db.putBlockBuf(slotBuf)
	if !found {
		// No committed manifest: the whole table area is free. The WAL must
		// still replay — a crash before the first manifest commit leaves all
		// of the data in the log (on a truly fresh device the region is
		// zeros and replay stops at the first invalid batch).
		return db.walReplay(p)
	}
	db.manifestVer = best.version
	db.nextTableID = best.nextTableID
	db.flushedSeq = best.flushedSeq
	db.seq = best.flushedSeq
	db.walTail = best.walTail
	db.walHead = best.walTail
	for lv := range best.levels {
		if lv >= len(db.levels) {
			return fmt.Errorf("lsmdb: manifest has %d levels, config allows %d", len(best.levels), len(db.levels))
		}
		for _, t := range best.levels[lv] {
			if err := db.loadTable(p, t); err != nil {
				return err
			}
			db.setSlots(t.off, db.slots(t.size), true)
			db.levels[lv] = append(db.levels[lv], t)
			db.levelBytes[lv] += t.size
		}
	}
	// Trim dead space so a crash between manifest commit and slot trim
	// does not leave the FTL carrying stale sectors: each maximal run of
	// free slots once, the last run with the area's sub-slot tail.
	run := db.areaBase
	for i, used := range db.slotUsed {
		if off := db.areaBase + int64(i)*db.tableSlot; used {
			if off > run {
				db.asyncTrim(run, off-run)
			}
			run = off + db.tableSlot
		}
	}
	if run < db.areaEnd {
		db.asyncTrim(run, db.areaEnd-run)
	}
	db.TrimmedBytes = 0 // recovery trims are not workload writes
	return db.walReplay(p)
}

// loadTable reloads a manifest table's resident footer, index and bloom
// filter from the device. The manifest is input read from the device, so
// the table must start on a slot boundary and span slots of the area that
// no other table holds.
func (db *DB) loadTable(p *sim.Proc, t *tableMeta) error {
	rel := t.off - db.areaBase
	first := int(rel / db.tableSlot)
	end := first + db.slots(min(t.size, db.areaEnd)) // capped: a corrupt size must not overflow
	bad := t.size < int64(tableFooterLen) || rel < 0 || rel%db.tableSlot != 0 || end > len(db.slotUsed)
	for i := first; !bad && i < end; i++ {
		bad = db.slotUsed[i]
	}
	if bad {
		return fmt.Errorf("lsmdb: manifest table %d has bad extent [%d,%d)", t.id, t.off, t.off+t.size)
	}
	foot := db.getBlockBuf(int(db.ss))
	if err := db.blk.Read(p, t.off+t.size-db.ss, foot, db.ss); err != nil {
		return err
	}
	// The footer starts somewhere in the final sector: it was appended
	// right after the index padding, so scan for the magic at each 4-byte
	// offset (the build wrote it at the first position after padding).
	fOff := -1
	for o := 0; o+tableFooterLen <= len(foot); o += 4 {
		if binary.LittleEndian.Uint64(foot[o:o+8]) == tableMagic {
			fOff = o
			break
		}
	}
	if fOff < 0 {
		db.putBlockBuf(foot)
		return fmt.Errorf("lsmdb: table %d footer missing", t.id)
	}
	count := int64(binary.LittleEndian.Uint64(foot[fOff+8 : fOff+16]))
	bloomOff := int64(binary.LittleEndian.Uint32(foot[fOff+16 : fOff+20]))
	bloomLen := int64(binary.LittleEndian.Uint32(foot[fOff+20 : fOff+24]))
	indexOff := int64(binary.LittleEndian.Uint32(foot[fOff+24 : fOff+28]))
	indexLen := int64(binary.LittleEndian.Uint32(foot[fOff+28 : fOff+32]))
	db.putBlockBuf(foot)
	if bloomOff < 0 || bloomOff+bloomLen > t.size || indexOff < bloomOff || indexOff+indexLen > t.size {
		return fmt.Errorf("lsmdb: table %d footer corrupt", t.id)
	}
	t.count = count
	// Read the aligned span covering bloom+index.
	lo := bloomOff / db.ss * db.ss
	hi := db.sectorAlign(indexOff + indexLen)
	span := db.getBlockBuf(int(hi - lo))
	if err := db.blk.Read(p, t.off+lo, span, hi-lo); err != nil {
		return err
	}
	t.bloom = append([]byte(nil), span[bloomOff-lo:bloomOff-lo+bloomLen]...)
	idx := span[indexOff-lo : indexOff-lo+indexLen]
	db.putBlockBuf(span)
	if len(idx) < 4 {
		return fmt.Errorf("lsmdb: table %d index corrupt", t.id)
	}
	n := int(binary.LittleEndian.Uint32(idx[0:4]))
	off := 4
	var arena []byte
	type span2 struct{ a, b int32 }
	spans := make([]span2, 0, n)
	offs := make([][2]int32, 0, n)
	for i := 0; i < n; i++ {
		if off+10 > len(idx) {
			return fmt.Errorf("lsmdb: table %d index truncated", t.id)
		}
		klen := int(binary.LittleEndian.Uint16(idx[off : off+2]))
		bo := int32(binary.LittleEndian.Uint32(idx[off+2 : off+6]))
		bl := int32(binary.LittleEndian.Uint32(idx[off+6 : off+10]))
		off += 10
		if off+klen > len(idx) {
			return fmt.Errorf("lsmdb: table %d index truncated", t.id)
		}
		a := int32(len(arena))
		arena = append(arena, idx[off:off+klen]...)
		spans = append(spans, span2{a, int32(klen)})
		offs = append(offs, [2]int32{bo, bl})
		off += klen
	}
	t.index = make([]indexEntry, n)
	for i := range t.index {
		t.index[i] = indexEntry{
			lastKey: arena[spans[i].a : spans[i].a+spans[i].b],
			off:     offs[i][0], len: offs[i][1],
		}
	}
	return nil
}
