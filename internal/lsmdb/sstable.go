package lsmdb

import (
	"bytes"
	"encoding/binary"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// SSTables are immutable sorted tables written as one contiguous extent:
//
//	[data blocks][bloom filter][index][footer sector]
//
// Data blocks hold a record count followed by sorted records and are
// padded to sector boundaries, so a block read is a single aligned I/O.
// The bloom filter and index are resident in memory for live tables; the
// on-device copies exist so Open can reload them from the manifest's
// table list. All parsers are bounds-checked and treat malformed bytes as
// absent data: a payload-less device (nullblk) returns zeros and the
// engine degrades to timing-only behaviour instead of failing.
//
// Record: flags u8, klen u16, vlen u32, seq u64, key, val.
// Block:  count u16, records, zero padding.
// Footer: magic u64, count u64, bloomOff u32, bloomLen u32, indexOff u32,
//         indexLen u32 (one sector).

const (
	tableMagic     = 0x4C534D5353544142 // "LSMSSTAB"
	tableRecHdr    = 15
	tableFooterLen = 32
)

// tableMeta is one live table: extent location plus resident index and
// bloom filter. refs pins the extent against reuse while a reader is
// mid-I/O; dead tables are reaped (extent freed + trimmed) when the last
// reference drops.
type tableMeta struct {
	id             uint64
	off, size      int64
	count          int64
	minKey, maxKey []byte
	index          []indexEntry
	bloom          []byte
	refs           int
	dead           bool
}

// indexEntry locates one data block; lastKey is the largest key in it.
type indexEntry struct {
	lastKey  []byte
	off, len int32 // sector-aligned byte range within the table
}

// ---- block scratch pool ----

func (db *DB) getBlockBuf(n int) []byte {
	if b := db.blockBufs.Get(); b != nil && cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n, n+int(db.ss))
}

func (db *DB) putBlockBuf(b []byte) {
	if cap(b) == 0 || db.blockBufs.Len() >= 8 {
		return
	}
	db.blockBufs.Put(b[:0])
}

// ---- bloom filter ----
// Layout: k u8, then the bit array. Double hashing from one FNV-64a pass.

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// bloomBitsPerKey sizes every table's filter; k is ln2 × bits/key probes.
const bloomBitsPerKey = 10

func bloomBuild(dst []byte, hashes []uint64) []byte {
	const k = bloomBitsPerKey * 69 / 100
	bits := len(hashes) * bloomBitsPerKey
	if bits < 64 {
		bits = 64
	}
	nb := (bits + 7) / 8
	dst = padTo(append(dst[:0], byte(k)), 1+nb)
	arr := dst[1:]
	m := uint64(nb * 8)
	for _, h := range hashes {
		delta := h>>33 | h<<31
		for i := 0; i < k; i++ {
			pos := h % m
			arr[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return dst
}

func bloomMayContain(bloom []byte, h uint64) bool {
	if len(bloom) < 2 {
		return true
	}
	k := int(bloom[0])
	arr := bloom[1:]
	m := uint64(len(arr) * 8)
	delta := h>>33 | h<<31
	for i := 0; i < k; i++ {
		pos := h % m
		if arr[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// ---- builder ----

// tableBuilder assembles a complete table image in a pooled buffer; the
// flusher and the compactor each hold their own while active.
type tableBuilder struct {
	db         *DB
	buf        []byte
	blockStart int
	blockCount int
	firstKey   []byte
	lastKey    []byte
	hashes     []uint64
	// Index under construction: lastKeys collected in keyArena (the final
	// tableMeta gets its own copies, since the builder is recycled).
	keyArena []byte
	keySpan  [][2]int32
	blockOff []int32
	blockLen []int32
	count    int64
}

func (db *DB) putBuilder(b *tableBuilder) {
	b.reset()
	db.builders.Put(b)
}

func (b *tableBuilder) reset() {
	b.buf = b.buf[:0]
	b.blockStart = 0
	b.blockCount = 0
	b.firstKey = b.firstKey[:0]
	b.lastKey = b.lastKey[:0]
	b.hashes = b.hashes[:0]
	b.keyArena = b.keyArena[:0]
	b.keySpan = b.keySpan[:0]
	b.blockOff = b.blockOff[:0]
	b.blockLen = b.blockLen[:0]
	b.count = 0
}

func (b *tableBuilder) empty() bool { return b.count == 0 }

// size is the current data size (for output splitting).
func (b *tableBuilder) size() int64 { return int64(len(b.buf)) }

func (b *tableBuilder) add(key, val []byte, seq uint64, tomb bool) {
	if b.blockCount == 0 {
		b.blockStart = len(b.buf)
		b.buf = append(b.buf, 0, 0) // record count placeholder
	}
	var hdr [tableRecHdr]byte
	if tomb {
		hdr[0] = walFlagTomb
	}
	binary.LittleEndian.PutUint16(hdr[1:3], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(val)))
	binary.LittleEndian.PutUint64(hdr[7:15], seq)
	b.buf = append(b.buf, hdr[:]...)
	b.buf = append(b.buf, key...)
	b.buf = append(b.buf, val...)
	b.blockCount++
	b.count++
	b.hashes = append(b.hashes, fnv64(key))
	if b.count == 1 {
		b.firstKey = append(b.firstKey[:0], key...)
	}
	b.lastKey = append(b.lastKey[:0], key...)
	if len(b.buf)-b.blockStart >= b.db.cfg.BlockSize {
		b.finishBlock()
	}
}

func (b *tableBuilder) finishBlock() {
	if b.blockCount == 0 {
		return
	}
	binary.LittleEndian.PutUint16(b.buf[b.blockStart:b.blockStart+2], uint16(b.blockCount))
	// Pad the block to a sector boundary.
	b.buf = b.db.padSector(b.buf)
	ko := int32(len(b.keyArena))
	b.keyArena = append(b.keyArena, b.lastKey...)
	b.keySpan = append(b.keySpan, [2]int32{ko, int32(len(b.lastKey))})
	b.blockOff = append(b.blockOff, int32(b.blockStart))
	b.blockLen = append(b.blockLen, int32(len(b.buf)-b.blockStart))
	b.blockCount = 0
}

// finish seals the image (bloom, index, footer), allocates a slot,
// writes it with the configured lifetime hint, flushes the device, and
// returns the live tableMeta. The caller commits the manifest.
func (b *tableBuilder) finish(p *sim.Proc) (*tableMeta, error) {
	db := b.db
	b.finishBlock()
	bloom := bloomBuild(nil, b.hashes)
	bloomOff := len(b.buf)
	b.buf = append(b.buf, bloom...)
	bloomLen := len(b.buf) - bloomOff
	b.buf = db.padSector(b.buf)
	indexOff := len(b.buf)
	var n4 [4]byte
	binary.LittleEndian.PutUint32(n4[:], uint32(len(b.blockOff)))
	b.buf = append(b.buf, n4[:]...)
	for i := range b.blockOff {
		sp := b.keySpan[i]
		var ent [10]byte
		binary.LittleEndian.PutUint16(ent[0:2], uint16(sp[1]))
		binary.LittleEndian.PutUint32(ent[2:6], uint32(b.blockOff[i]))
		binary.LittleEndian.PutUint32(ent[6:10], uint32(b.blockLen[i]))
		b.buf = append(b.buf, ent[:]...)
		b.buf = append(b.buf, b.keyArena[sp[0]:sp[0]+sp[1]]...)
	}
	indexLen := len(b.buf) - indexOff
	b.buf = db.padSector(b.buf)
	if db.slotPad {
		// Erase-unit alignment: fill the slot (minus the footer sector) so
		// this table consumes exactly one reclaim unit of the FTL's append
		// stream. The footer stays in the slot's last sector, where recovery
		// scans for it.
		b.buf = padTo(b.buf, int(db.tableSlot-db.ss))
	}
	var foot [tableFooterLen]byte
	binary.LittleEndian.PutUint64(foot[0:8], tableMagic)
	binary.LittleEndian.PutUint64(foot[8:16], uint64(b.count))
	binary.LittleEndian.PutUint32(foot[16:20], uint32(bloomOff))
	binary.LittleEndian.PutUint32(foot[20:24], uint32(bloomLen))
	binary.LittleEndian.PutUint32(foot[24:28], uint32(indexOff))
	binary.LittleEndian.PutUint32(foot[28:32], uint32(indexLen))
	b.buf = append(b.buf, foot[:]...)
	b.buf = db.padSector(b.buf)

	size := int64(len(b.buf))
	// One table image at a time: interleaved flush/compaction chunks would
	// scramble extents across append-stream groups.
	db.tableWriteMu.Acquire(p)
	off, err := db.allocSlots(db.slots(size))
	if err != nil {
		db.tableWriteMu.Release()
		return nil, err
	}
	hint := db.tableHint()
	const chunk = 256 << 10
	for done := int64(0); done < size; {
		n := int64(chunk)
		if size-done < n {
			n = size - done
		}
		h := hint
		if done == 0 && db.slotPad && hint != blockdev.HintNone {
			// First write of an erase-unit-sized segment: a stream-placing
			// FTL realigns its append stream here, so the whole table maps
			// onto whole erase units.
			h = blockdev.HintColdSeg
		}
		if err := db.blk.Do(p, blockdev.ReqWrite, off+done, b.buf[done:done+n], n, h); err != nil {
			db.tableWriteMu.Release()
			return nil, err
		}
		done += n
	}
	err = db.blk.Flush(p)
	db.tableWriteMu.Release()
	if err != nil {
		return nil, err
	}

	t := &tableMeta{
		id: db.nextTableID, off: off, size: size, count: b.count,
		minKey: append([]byte(nil), b.firstKey...),
		maxKey: append([]byte(nil), b.lastKey...),
		bloom:  bloom,
		index:  make([]indexEntry, len(b.blockOff)),
	}
	db.nextTableID++
	keys := append([]byte(nil), b.keyArena...)
	for i := range t.index {
		sp := b.keySpan[i]
		t.index[i] = indexEntry{
			lastKey: keys[sp[0] : sp[0]+sp[1]],
			off:     b.blockOff[i], len: b.blockLen[i],
		}
	}
	b.reset()
	return t, nil
}

// ---- table lifecycle ----

// killTable marks a replaced table dead; its slot is freed and trimmed
// once no reader holds a reference.
func (db *DB) killTable(t *tableMeta) {
	t.dead = true
	db.maybeReap(t)
}

func (db *DB) maybeReap(t *tableMeta) {
	if !t.dead || t.refs != 0 || t.size == 0 {
		return
	}
	n := db.slots(t.size)
	db.setSlots(t.off, n, false)
	db.asyncTrim(t.off, int64(n)*db.tableSlot)
	t.size = 0
}

// ---- point lookup ----

// tableGet looks key up in one table: bloom gate, index binary search,
// one cached block read, in-block scan. Dead tables are skipped — their
// data already lives at a deeper level the caller will visit.
func (db *DB) tableGet(p *sim.Proc, t *tableMeta, key []byte) (val []byte, tomb, found bool, err error) {
	if t.dead {
		return nil, false, false, nil
	}
	if !bloomMayContain(t.bloom, fnv64(key)) {
		db.BloomSkips++
		return nil, false, false, nil
	}
	// First index entry whose lastKey >= key holds the candidate block.
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if keyLess(t.index[mid].lastKey, key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.index) {
		return nil, false, false, nil
	}
	ent := t.index[lo]
	block, cached := db.cache.get(t.id, ent.off)
	if cached {
		db.CacheHits++
		val, tomb, found = parseBlockGet(block, key)
		return val, tomb, found, nil
	}
	db.CacheMisses++
	t.refs++
	buf := db.getBlockBuf(int(ent.len))
	err = db.blk.Read(p, t.off+int64(ent.off), buf, int64(ent.len))
	t.refs--
	db.maybeReap(t)
	if err != nil {
		db.putBlockBuf(buf)
		return nil, false, false, err
	}
	db.cache.insert(t.id, ent.off, buf)
	val, tomb, found = parseBlockGet(buf, key)
	// val aliases buf; the caller copies it out before any wait, and only
	// then may the scratch return to the pool — copy through the cache's
	// slot when present, else hold the scratch until copied. Copy now into
	// the caller-visible path by returning the scratch slice: finishGet
	// copies synchronously, so recycling the buffer afterwards is safe.
	db.putBlockBuf(buf)
	return val, tomb, found, nil
}

// parseBlockGet scans one data block for key. Bounds-checked: malformed
// blocks (zeroed payloads on storage-less devices) read as absent.
func parseBlockGet(block []byte, key []byte) (val []byte, tomb, found bool) {
	if len(block) < 2 {
		return nil, false, false
	}
	n := int(binary.LittleEndian.Uint16(block[0:2]))
	off := 2
	for i := 0; i < n; i++ {
		k, v, _, tomb, next, ok := decodeRec(block, off)
		if !ok {
			return nil, false, false
		}
		switch bytes.Compare(k, key) {
		case 0:
			return v, tomb, true
		case 1:
			return nil, false, false // sorted: key cannot follow
		}
		off = next
	}
	return nil, false, false
}

// decodeRec parses the record at block[off:] — flags | klen | vlen | seq,
// key, value: what tableBuilder.add wrote — and returns the offset of the
// one after it. ok is false where the block holds no whole record with a
// key, as in a truncated or zero-filled block. key and val alias block.
func decodeRec(block []byte, off int) (key, val []byte, seq uint64, tomb bool, next int, ok bool) {
	if off+tableRecHdr > len(block) {
		return
	}
	hdr := block[off : off+tableRecHdr]
	klen := int(binary.LittleEndian.Uint16(hdr[1:3]))
	vlen := int(binary.LittleEndian.Uint32(hdr[3:7]))
	off += tableRecHdr
	end := off + klen + vlen
	if klen == 0 || end > len(block) {
		return
	}
	return block[off : off+klen], block[off+klen : end], binary.LittleEndian.Uint64(hdr[7:15]), hdr[0]&walFlagTomb != 0, end, true
}

// ---- sequential iteration (compaction input) ----

// tableIter streams a table's records in order, reading one data block
// per I/O into a pooled buffer. Compaction bypasses the block cache: its
// reads are one-pass.
type tableIter struct {
	db    *DB
	t     *tableMeta
	block int // next index entry to load
	buf   []byte
	off   int // record cursor within buf
	n     int // records remaining in buf
	key   []byte
	val   []byte
	seq   uint64
	tomb  bool
	valid bool
}

func (db *DB) getIter(t *tableMeta) *tableIter {
	it := db.iters.Get()
	it.t = t
	it.block = 0
	it.off = 0
	it.n = 0
	it.valid = true
	return it
}

func (db *DB) putIter(it *tableIter) {
	if it.buf != nil {
		db.putBlockBuf(it.buf)
		it.buf = nil
	}
	it.t = nil
	it.key, it.val = nil, nil
	it.valid = false
	db.iters.Put(it)
}

// next loads the following record; false at end of table.
func (it *tableIter) next(p *sim.Proc) (bool, error) {
	db := it.db
	for it.n == 0 {
		if it.block >= len(it.t.index) {
			it.valid = false
			return false, nil
		}
		ent := it.t.index[it.block]
		it.block++
		if cap(it.buf) < int(ent.len) {
			if it.buf != nil {
				db.putBlockBuf(it.buf)
			}
			it.buf = db.getBlockBuf(int(ent.len))
		}
		it.buf = it.buf[:ent.len]
		if err := db.blk.Read(p, it.t.off+int64(ent.off), it.buf, int64(ent.len)); err != nil {
			it.valid = false
			return false, err
		}
		db.CompactionReadBytes += int64(ent.len)
		if len(it.buf) < 2 {
			continue
		}
		it.n = int(binary.LittleEndian.Uint16(it.buf[0:2]))
		it.off = 2
	}
	var ok bool
	it.key, it.val, it.seq, it.tomb, it.off, ok = decodeRec(it.buf, it.off)
	if !ok {
		it.n = 0
		it.valid = false
		return false, nil
	}
	it.n--
	return true, nil
}
