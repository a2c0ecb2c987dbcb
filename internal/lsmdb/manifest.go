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

// extent is one free range of the table area.
type extent struct {
	off, size int64
}

// extentSpan is the allocator-visible size of a table image: rounded up
// to a whole number of uniform slots (one, in practice — the slot is
// sized for the worst-case table). Alloc, free, and recovery all round
// identically, so every hole in the area is a usable multiple of the
// slot.
func (db *DB) extentSpan(size int64) int64 {
	if db.tableSlot <= 0 {
		return size
	}
	if size <= db.tableSlot {
		return db.tableSlot
	}
	return (size + db.tableSlot - 1) / db.tableSlot * db.tableSlot
}

// allocExtent reserves a table extent (first fit over the sorted free
// list).
func (db *DB) allocExtent(size int64) (int64, error) {
	for i := range db.freeExt {
		e := &db.freeExt[i]
		if e.size >= size {
			off := e.off
			e.off += size
			e.size -= size
			if e.size == 0 {
				db.freeExt = append(db.freeExt[:i], db.freeExt[i+1:]...)
			}
			return off, nil
		}
	}
	var free, maxE int64
	for _, e := range db.freeExt {
		free += e.size
		if e.size > maxE {
			maxE = e.size
		}
	}
	return 0, fmt.Errorf("lsmdb: table area exhausted allocating %d bytes (live %d tables, area %d, free %d in %d exts, max ext %d, levelBytes %v)", size, db.liveTables(), db.areaEnd-db.areaBase, free, len(db.freeExt), maxE, db.levelBytes)
}

func (db *DB) liveTables() int {
	n := 0
	for _, lv := range db.levels {
		n += len(lv)
	}
	return n
}

// freeExtent returns a dead table's range to the allocator, coalescing
// with adjacent free ranges.
func (db *DB) freeExtent(off, size int64) {
	i := 0
	for i < len(db.freeExt) && db.freeExt[i].off < off {
		i++
	}
	db.freeExt = append(db.freeExt, extent{})
	copy(db.freeExt[i+1:], db.freeExt[i:])
	db.freeExt[i] = extent{off: off, size: size}
	// Coalesce with the right neighbour, then the left.
	if i+1 < len(db.freeExt) && db.freeExt[i].off+db.freeExt[i].size == db.freeExt[i+1].off {
		db.freeExt[i].size += db.freeExt[i+1].size
		db.freeExt = append(db.freeExt[:i+1], db.freeExt[i+2:]...)
	}
	if i > 0 && db.freeExt[i-1].off+db.freeExt[i-1].size == db.freeExt[i].off {
		db.freeExt[i-1].size += db.freeExt[i].size
		db.freeExt = append(db.freeExt[:i], db.freeExt[i+1:]...)
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
// bloom filter and index from its footer, rebuilds the free-extent list,
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
		db.freeExt = []extent{{off: db.areaBase, size: db.areaEnd - db.areaBase}}
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
			db.levels[lv] = append(db.levels[lv], t)
			db.levelBytes[lv] += t.size
		}
	}
	db.rebuildFreeExtents()
	// Trim dead space so a crash between manifest commit and extent trim
	// does not leave the FTL carrying stale sectors.
	for _, e := range db.freeExt {
		db.asyncTrim(e.off, e.size)
	}
	db.TrimmedBytes = 0 // recovery trims are not workload writes
	return db.walReplay(p)
}

// loadTable reloads a manifest table's resident footer, index and bloom
// filter from the device.
func (db *DB) loadTable(p *sim.Proc, t *tableMeta) error {
	if t.size < int64(tableFooterLen) || t.off < db.areaBase || t.off+t.size > db.areaEnd {
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

// rebuildFreeExtents computes the free list as the complement of the live
// tables over the table area.
func (db *DB) rebuildFreeExtents() {
	var live []extent
	for _, lv := range db.levels {
		for _, t := range lv {
			live = append(live, extent{off: t.off, size: db.extentSpan(t.size)})
		}
	}
	// Insertion sort by offset (table counts are small).
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j].off < live[j-1].off; j-- {
			live[j], live[j-1] = live[j-1], live[j]
		}
	}
	db.freeExt = db.freeExt[:0]
	cur := db.areaBase
	for _, e := range live {
		if e.off > cur {
			db.freeExt = append(db.freeExt, extent{off: cur, size: e.off - cur})
		}
		if e.off+e.size > cur {
			cur = e.off + e.size
		}
	}
	if cur < db.areaEnd {
		db.freeExt = append(db.freeExt, extent{off: cur, size: db.areaEnd - cur})
	}
}
