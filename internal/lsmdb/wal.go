package lsmdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/sim"
)

// Write-ahead log with group commit over a circular region.
//
// Producers (Put/Delete) append records to an accumulating batch buffer;
// a single background writer drains one batch at a time — records arriving
// while a write is in flight naturally coalesce into the next batch, which
// is exactly RocksDB's group commit. Batches are sector-aligned, never
// cross the region wrap boundary, and carry a CRC, so replay stops at the
// first torn or stale batch: prefix crash consistency.
//
// walHead/walTail are monotonic byte cursors (position = cursor mod
// walSize). The tail advances when a memtable flush commits its manifest:
// everything below the sealed memtable's walMark is then recoverable from
// SSTables instead.

const (
	walMagic   = 0x57A1B47C
	walHdrSize = 24 // magic u32, crc u32, firstSeq u64, count u32, payLen u32
	walRecHdr  = 7  // flags u8, klen u16, vlen u32
)

const walFlagTomb = 1

// walMaxBatch bounds one framed batch: the accumulation cap plus one
// oversized record. Replay rejects headers claiming more as torn.
const walMaxBatch = walMaxPend + (1 << 20)

// walAppend adds one record to the accumulating batch and parks until the
// batch containing it has been written to the device.
func (db *DB) walAppend(p *sim.Proc, key, val []byte, tomb bool, seq uint64) error {
	if db.cfg.DisableWAL {
		return nil
	}
	// Backpressure: bound the accumulating batch so a stalled writer
	// cannot buffer unbounded payload.
	for len(db.walPend) > walMaxPend {
		if db.failed != nil {
			return db.failed
		}
		db.walKick.Signal()
		db.waitBatch(p)
	}
	if len(db.walPend) == 0 {
		db.walPendFirst = seq
	}
	var hdr [walRecHdr]byte
	if tomb {
		hdr[0] = walFlagTomb
	}
	binary.LittleEndian.PutUint16(hdr[1:3], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(val)))
	db.walPend = append(db.walPend, hdr[:]...)
	db.walPend = append(db.walPend, key...)
	db.walPend = append(db.walPend, val...)
	db.walPendCount++
	db.walKick.Signal()
	for db.walWrittenSeq < seq {
		if db.failed != nil {
			return db.failed
		}
		db.waitBatch(p)
	}
	return nil
}

func (db *DB) waitBatch(p *sim.Proc) {
	db.walBatch.Rearm()
	p.Wait(db.walBatch)
}

func (db *DB) walFree() int64 { return db.walSize - (db.walHead - db.walTail) }

// walWriter is the group-commit drain: swap out the pending batch, frame
// it, write it at the head, and flush every WALSyncBytes.
func (db *DB) walWriter(p *sim.Proc) {
	for {
		if len(db.walPend) == 0 {
			if db.stopping {
				return
			}
			db.walKick.Rearm()
			p.Wait(db.walKick)
			continue
		}
		// Swap the accumulating batch out so producers keep appending to
		// the spare while this one is framed and written.
		payload := db.walPend
		first, count := db.walPendFirst, db.walPendCount
		db.walPend = db.walSpare[:0]
		db.walPendCount = 0
		db.walActive = true

		batchLen := db.sectorAlign(int64(walHdrSize + len(payload)))
		// A batch never crosses the wrap boundary: skip the slack so replay
		// can resynchronize at position 0.
		if pos := db.walHead % db.walSize; pos+batchLen > db.walSize {
			db.walHead += db.walSize - pos
		}
		// Reclaim space: seal and flush until the tail advances enough.
		for db.walFree() < batchLen {
			if db.failed != nil {
				return
			}
			db.sealActive()
			db.flushKick.Signal()
			db.waitAdvance(p)
		}
		frame := db.walFrame[:0]
		var hdr [walHdrSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], walMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint64(hdr[8:16], first)
		binary.LittleEndian.PutUint32(hdr[16:20], uint32(count))
		binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(payload)))
		frame = append(frame, hdr[:]...)
		frame = append(frame, payload...)
		frame = padTo(frame, int(batchLen))
		db.walFrame = frame
		db.walSpare = payload // recycled as the next swap buffer
		err := db.blk.Write(p, db.walBase+db.walHead%db.walSize, frame, batchLen)
		if err != nil {
			db.fail(fmt.Errorf("lsmdb: WAL write: %w", err))
			return
		}
		db.walHead += batchLen
		db.WALBytes += batchLen
		db.walSinceSync += batchLen
		db.walWrittenSeq = first + uint64(count) - 1
		if db.walSinceSync >= int64(db.cfg.WALSyncBytes) {
			db.walSinceSync = 0
			db.Syncs++
			if err := db.blk.Flush(p); err != nil {
				db.fail(fmt.Errorf("lsmdb: WAL flush: %w", err))
				return
			}
			db.walSyncedSeq = db.walWrittenSeq
		}
		db.walActive = false
		db.walBatch.Signal()
	}
}

// walReplay rebuilds the memtable from the log after recovery loaded the
// manifest: starting at walTail, CRC-valid batches are applied in order
// (records at or below flushedSeq are already in SSTables and skipped)
// until the first torn, stale, or discontinuous batch — the crash point.
func (db *DB) walReplay(p *sim.Proc) error {
	if db.cfg.DisableWAL || db.walSize == 0 {
		db.walHead = db.walTail
		return nil
	}
	cur := db.walTail
	expect := uint64(0)
	maxBatch := db.sectorAlign(walMaxBatch)
	if maxBatch > db.walSize {
		maxBatch = db.walSize
	}
	buf := make([]byte, maxBatch) // recovery only; not pooled
	defer db.putBlockBuf(buf)
	wrapRetried := false
	for {
		pos := cur % db.walSize
		if pos+int64(walHdrSize) > db.walSize {
			cur += db.walSize - pos
			pos = 0
		}
		// Read the first sector to frame the batch.
		sect := buf[:db.ss]
		if err := db.blk.Read(p, db.walBase+pos, sect, db.ss); err != nil {
			return err
		}
		magic := binary.LittleEndian.Uint32(sect[0:4])
		crc := binary.LittleEndian.Uint32(sect[4:8])
		first := binary.LittleEndian.Uint64(sect[8:16])
		count := binary.LittleEndian.Uint32(sect[16:20])
		payLen := binary.LittleEndian.Uint32(sect[20:24])
		batchLen := db.sectorAlign(int64(walHdrSize) + int64(payLen))
		valid := magic == walMagic && payLen > 0 && batchLen <= db.walSize-pos &&
			batchLen <= maxBatch && count > 0
		var payload []byte
		if valid {
			if batchLen > db.ss {
				rest := buf[db.ss:batchLen]
				if err := db.blk.Read(p, db.walBase+pos+db.ss, rest, batchLen-db.ss); err != nil {
					return err
				}
			}
			payload = buf[walHdrSize : walHdrSize+int(payLen)]
			valid = crc32.ChecksumIEEE(payload) == crc
		}
		if valid && expect != 0 && first != expect {
			valid = false // discontinuity: stale batch from an earlier lap
		}
		if !valid {
			// The writer may have skipped the wrap slack: resynchronize at
			// position 0 once, then stop.
			if pos != 0 && !wrapRetried {
				wrapRetried = true
				cur += db.walSize - pos
				continue
			}
			break
		}
		wrapRetried = false
		// Apply the records.
		seq := first
		off := 0
		for i := uint32(0); i < count; i++ {
			if off+walRecHdr > len(payload) {
				return nil // malformed tail: treat as crash point
			}
			flags := payload[off]
			klen := int(binary.LittleEndian.Uint16(payload[off+1 : off+3]))
			vlen := int(binary.LittleEndian.Uint32(payload[off+3 : off+7]))
			off += walRecHdr
			if klen == 0 || off+klen+vlen > len(payload) {
				return nil
			}
			key := payload[off : off+klen]
			val := payload[off+klen : off+klen+vlen]
			off += klen + vlen
			if seq > db.flushedSeq {
				db.mem.insert(key, val, seq, flags&walFlagTomb != 0)
				if seq > db.seq {
					db.seq = seq
				}
			}
			seq++
		}
		expect = first + uint64(count)
		cur += batchLen
		db.walHead = cur
	}
	if db.walHead < db.walTail {
		db.walHead = db.walTail
	}
	// Everything replayed is on the device already.
	db.walWrittenSeq = db.seq
	db.walSyncedSeq = db.seq
	if db.mem.size >= db.cfg.MemtableSize {
		db.sealActive()
	}
	return nil
}
