// Package lsmdb is a storage-level LSM-tree key-value engine standing in
// for RocksDB in the paper's application evaluation (§5.4, Fig 6/Table 2).
//
// It is a real leveled LSM rather than a synthetic I/O model: a
// write-ahead log with group commit, a sorted-skiplist memtable with an
// immutable flush queue, block-format SSTables with per-table bloom
// filters, a clock-eviction block cache, a double-slot manifest for
// crash-consistent level state, and leveled background compaction with
// overlap-based victim picking. Keys and values are materialized, so
// point lookups, crash recovery (manifest load + WAL replay), and
// compaction merges operate on real data.
//
// All device I/O rides the blockdev.Queue asynchronous datapath through
// pooled requests (blockdev.SyncAdapter), so the steady-state read/write path
// allocates nothing. SSTable flush and compaction output may be tagged with
// blockdev.HintCold (Config.ColdHints): pblk then writes them on its GC
// (cold) stream, away from the hot WAL, and because lsmdb erases whole
// table extents with ReqTrim after each compaction, the FTL has next to
// nothing to relocate — compaction is the garbage collection (the paper's
// argument against log-on-log stacking).
package lsmdb

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// Config shapes the engine.
type Config struct {
	// KeySize+ValueSize is the logical entry size the db_bench-style
	// drivers generate (db_bench: 16+100 by default; the paper-scale runs
	// use larger values). The engine itself takes arbitrary keys/values.
	KeySize, ValueSize int
	// MemtableSize seals the active memtable for flushing to L0
	// (RocksDB write_buffer_size).
	MemtableSize int64
	// WALSize is the circular WAL region in bytes. 0 derives 4x
	// MemtableSize, clamped to 1/8 of the device.
	WALSize int64
	// WALSyncBytes is the group-commit sync granularity: a device flush is
	// issued every WALSyncBytes of log. Put always waits until its record's
	// WAL batch write completes (the paper runs with sync enabled "to
	// guarantee data integrity").
	WALSyncBytes int
	// DisableWAL skips the log entirely (db_bench --disable_wal).
	DisableWAL bool
	// L0CompactionTrigger starts a compaction; L0StallLimit stalls writers.
	L0CompactionTrigger, L0StallLimit int
	// LevelRatio is the size ratio between adjacent levels.
	LevelRatio int
	// MaxLevels bounds the tree depth.
	MaxLevels int
	// BlockSize is the SSTable data-block payload target; blocks are
	// padded to sector boundaries so block reads need no realignment.
	BlockSize int
	// TableTargetSize splits compaction output tables.
	TableTargetSize int64
	// TableSlotSize, when >0, fixes the uniform table extent size instead
	// of the computed worst case, and pads every table image to fill its
	// slot exactly. Set it to pblk's erase unit (EraseUnitBytes) times its
	// active PUs: a table hinted cold (ColdHints) then fills one block group
	// per lane of pblk's GC stream, so trimming it leaves those groups
	// invalid save for GC rewrites placed among them. The slot must exceed
	// the worst-case table image (TableTargetSize plus entry overshoot,
	// bloom, index, footer) or Open fails.
	TableSlotSize int64
	// BlockCacheSize bounds the clock block cache in bytes (0 disables).
	BlockCacheSize int64
	// ColdHints tags SSTable flush and compaction writes with
	// blockdev.HintCold. It is the one switch for hinting: pblk writes every
	// cold-hinted sector on its GC stream, apart from hot WAL and user
	// data; devices without streams ignore the hint.
	ColdHints bool
	// CPUPerOp is the host CPU cost charged to every Put and Get
	// (memtable/skiplist work, comparisons, checksums).
	CPUPerOp time.Duration
	Seed     int64
}

// DefaultConfig returns db_bench-like defaults scaled for simulation.
func DefaultConfig() Config {
	return Config{
		KeySize:             16,
		ValueSize:           1008, // 1 KB entries keep user MB/s comparable to the paper
		MemtableSize:        32 << 20,
		WALSyncBytes:        32 << 10,
		L0CompactionTrigger: 4,
		L0StallLimit:        8,
		LevelRatio:          10,
		MaxLevels:           4,
		BlockSize:           32 << 10,
		TableTargetSize:     8 << 20,
		BlockCacheSize:      32 << 20,
		CPUPerOp:            2 * time.Microsecond,
		Seed:                1,
	}
}

// ErrClosed is returned for operations after Close.
var ErrClosed = errors.New("lsmdb: closed")

// maxImmutables bounds the flush queue before writers stall (RocksDB
// max_write_buffer_number - 1).
const maxImmutables = 2

// queueDepth is the submission queue depth opened on the device.
const queueDepth = 32

// walMaxPend bounds the accumulating group-commit batch; producers park
// until the writer drains below it.
const walMaxPend = 1 << 20

// DB is the engine instance.
type DB struct {
	cfg Config
	env *sim.Env
	q   blockdev.Queue
	blk *blockdev.SyncAdapter // blocking calls over q
	rng *rand.Rand
	ss  int64 // device sector size

	// Device layout: [manifest slot 0 | slot 1 | WAL region | table area).
	walBase, walSize  int64
	areaBase, areaEnd int64

	// WAL state: walHead/walTail are monotonic byte cursors into the
	// circular region (position = cursor mod walSize).
	walHead, walTail int64
	walPend          []byte // accumulating group-commit payload
	walPendFirst     uint64 // seq of the first record in walPend
	walPendCount     int
	walSpare         []byte // last written payload, recycled as next walPend
	walFrame         []byte // framed batch build buffer (writer-owned)
	walWrittenSeq    uint64 // last seq whose batch write completed
	walSyncedSeq     uint64 // last seq covered by a completed device flush
	walSinceSync     int64
	walActive        bool // writer mid-batch
	walKick          *sim.Event
	walBatch         *sim.Event
	walProc          *sim.Proc

	mem       *memtable
	immQ      sim.FIFO[*memtable]
	memPool   sim.Pool[*memtable]
	flushKick *sim.Event
	stallEv   *sim.Event
	advanceEv *sim.Event // fires on flush/compaction progress (WAL space, stalls)

	// levels[0] is L0 in flush order (newest last); deeper levels are
	// sorted by minKey and non-overlapping. Edits that remove tables
	// replace the slice wholesale (copy-on-write) so readers can capture a
	// level's slice and iterate across I/O waits.
	levels      [][]*tableMeta
	levelBytes  []int64
	nextTableID uint64
	seq         uint64 // last assigned sequence number
	flushedSeq  uint64 // highest seq persisted in SSTables (manifest)
	manifestVer uint64
	manifestBuf []byte
	manifestMu  *sim.Resource

	slotUsed  []bool // per table slot: part of a live (or unreaped) table
	tableSlot int64  // uniform table extent size (fragmentation-proof)
	slotPad   bool   // pad table images to tableSlot (erase-unit alignment)

	// tableWriteMu serializes whole table-image writes: without it a flush
	// and a compaction output interleave their chunks in the device's
	// append stream, and no extent then maps to a contiguous physical run.
	// With slot-aligned padded images this keeps table extent == erase
	// group exactly, which is what makes trim-after-compaction free.
	tableWriteMu *sim.Resource

	flushing    bool
	compacting  bool
	stopping    bool
	failed      error // first background I/O failure: engine is fail-stop
	flushProc   *sim.Proc
	compactProc *sim.Proc
	compactKick *sim.Event

	cache blockCache

	// Pools: fire-and-forget trim requests, SSTable builders and iterators,
	// block scratch buffers.
	trimPool  blockdev.ReqPool
	builders  sim.Pool[*tableBuilder]
	iters     sim.Pool[*tableIter]
	blockBufs sim.Pool[[]byte]

	// Driver state: highest key index loaded, shared by the db_bench-style
	// drivers so read phases know the populated range.
	loaded int64

	// Stats observable by the harness.
	Gets                 int64
	UserBytesIn          int64
	FlushedBytes         int64
	CompactionReadBytes  int64
	CompactionWriteBytes int64
	WALBytes             int64
	Syncs                int64
	WriteStalls          int64
	CacheHits            int64
	CacheMisses          int64
	BloomSkips           int64
	Flushes              int64
	Compactions          int64
	TrimmedBytes         int64
}

// Device is what the engine uses of a block device — its geometry and one
// queue pair, which carries the blocking calls too. Every blockdev.Device
// is one.
type Device interface {
	blockdev.Geometry
	blockdev.QueueProvider
}

// Open creates or recovers an engine on dev: the manifest's newer valid
// slot restores the level state, and WAL replay rebuilds the memtable up
// to the crash point. The engine owns the whole device.
func Open(p *sim.Proc, env *sim.Env, dev Device, cfg Config) (*DB, error) {
	if cfg.MemtableSize == 0 {
		cfg = DefaultConfig()
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 32 << 10
	}
	if cfg.TableTargetSize == 0 {
		cfg.TableTargetSize = 8 << 20
	}
	if cfg.MaxLevels < 2 {
		cfg.MaxLevels = 2
	}
	ss := int64(dev.SectorSize())
	db := &DB{
		cfg: cfg, env: env, ss: ss,
		q:   blockdev.OpenQueue(env, dev, queueDepth),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	db.blk = blockdev.NewQueueAdapter(env, db.q)
	db.memPool.New = func() *memtable {
		m := &memtable{db: db}
		m.nodes = append(m.nodes, mnode{}) // head sentinel
		return m
	}
	db.builders.New = func() *tableBuilder { return &tableBuilder{db: db} }
	db.iters.New = func() *tableIter { return &tableIter{db: db} }
	walSize := cfg.WALSize
	if walSize == 0 {
		walSize = 4 * cfg.MemtableSize
	}
	if max := dev.Capacity() / 8; walSize > max {
		walSize = max
	}
	db.walBase = 2 * manifestSlotSize
	db.walSize = walSize / ss * ss
	db.areaBase = db.walBase + db.walSize
	db.areaEnd = dev.Capacity() / ss * ss
	if db.areaEnd-db.areaBase < 2*cfg.MemtableSize {
		return nil, fmt.Errorf("lsmdb: device too small: %d bytes of table area", db.areaEnd-db.areaBase)
	}
	// Table extents are uniform slots sized for the worst-case table image
	// (data overshoot past the cut threshold, bloom at tombstone-only
	// density, block index, footer, sector padding). Same-size extents make
	// the area immune to fragmentation: any free hole fits any table, so a
	// long-running instance at high occupancy cannot strand free bytes in
	// sub-table shards.
	{
		maxEntry := int64(cfg.KeySize + cfg.ValueSize + tableRecHdr)
		if b := int64(cfg.BlockSize); maxEntry < b {
			maxEntry = b
		}
		maxData := cfg.TableTargetSize + maxEntry + ss
		entries := maxData/int64(tableRecHdr+cfg.KeySize+1) + 1
		bloom := entries*bloomBitsPerKey/8 + 64
		blocks := maxData/int64(cfg.BlockSize) + 2
		index := blocks * int64(10+cfg.KeySize+8)
		db.tableSlot = db.sectorAlign(maxData + bloom + index + 3*ss)
	}
	if cfg.TableSlotSize > 0 {
		slot := db.sectorAlign(cfg.TableSlotSize)
		// The explicit slot must still fit a worst-case image — including a
		// tombstone-dense one, whose bloom and index are largest — since a
		// table that overflows its slot would break the alignment invariant.
		maxData := cfg.TableTargetSize + int64(cfg.KeySize+cfg.ValueSize+tableRecHdr) + ss
		entries := maxData/int64(tableRecHdr+cfg.KeySize+1) + 1
		meta := entries*bloomBitsPerKey/8 + 64 +
			(maxData/int64(cfg.BlockSize)+2)*int64(10+cfg.KeySize+8) + 3*ss
		if slot < db.sectorAlign(maxData+meta) {
			return nil, fmt.Errorf("lsmdb: TableSlotSize %d below worst-case table image %d",
				slot, db.sectorAlign(maxData+meta))
		}
		db.tableSlot = slot
		db.slotPad = true
	}
	db.slotUsed = make([]bool, (db.areaEnd-db.areaBase)/db.tableSlot)
	db.levels = make([][]*tableMeta, cfg.MaxLevels)
	db.levelBytes = make([]int64, cfg.MaxLevels)
	db.nextTableID = 1
	db.walKick = env.NewEvent()
	db.walBatch = env.NewEvent()
	db.flushKick = env.NewEvent()
	db.stallEv = env.NewEvent()
	db.compactKick = env.NewEvent()
	db.advanceEv = env.NewEvent()
	db.manifestMu = env.NewResource(1)
	db.tableWriteMu = env.NewResource(1)
	db.cache.init(cfg.BlockCacheSize, cfg.BlockSize+2*int(ss))
	db.mem = db.memPool.Get()
	if err := db.recover(p); err != nil {
		return nil, err
	}
	db.walProc = env.Go("lsmdb.wal", db.walWriter)
	db.flushProc = env.Go("lsmdb.flusher", db.flusher)
	db.compactProc = env.Go("lsmdb.compactor", db.compactor)
	return db, nil
}

// Test-only: SyncedSeq returns the highest sequence number guaranteed
// durable: data at or below it survives a crash (covered by a completed WAL
// device flush or a committed SSTable flush). It is the crash tests'
// durability oracle; no experiment cuts power under lsmdb.
func (db *DB) SyncedSeq() uint64 {
	if db.flushedSeq > db.walSyncedSeq {
		return db.flushedSeq
	}
	return db.walSyncedSeq
}

// LevelTables returns the table count per level (diagnostics).
func (db *DB) LevelTables() []int {
	out := make([]int, len(db.levels))
	for i := range db.levels {
		out[i] = len(db.levels[i])
	}
	return out
}

func (db *DB) entrySize() int64 { return int64(db.cfg.KeySize + db.cfg.ValueSize) }

func (db *DB) sectorAlign(n int64) int64 { return (n + db.ss - 1) / db.ss * db.ss }

// padSector zero-pads buf to the next sector boundary.
func (db *DB) padSector(buf []byte) []byte {
	return padTo(buf, int(db.sectorAlign(int64(len(buf)))))
}

// padTo appends zeros until buf is n bytes long (the compiler turns the
// append of a fresh make into grow-and-clear, with no temporary); a buf
// already that long comes back as it is.
func padTo(buf []byte, n int) []byte {
	if n <= len(buf) {
		return buf
	}
	return append(buf, make([]byte, n-len(buf))...)
}

// asyncTrim discards a dead extent without blocking: fire-and-forget
// through the request pool. The FTL drops the mappings, so the erased
// table's sectors become zero-cost garbage instead of data GC would move.
func (db *DB) asyncTrim(off, length int64) {
	r := db.trimPool.Get()
	r.Op, r.Off, r.Length = blockdev.ReqTrim, off, length
	r.OnComplete = db.trimDone
	db.q.Submit(r)
	db.TrimmedBytes += length
}

func (db *DB) trimDone(r *blockdev.Request) { db.trimPool.Put(r) }

func (db *DB) tableHint() uint8 {
	if db.cfg.ColdHints {
		return blockdev.HintCold
	}
	return blockdev.HintNone
}

// ---- write path ----

// Put inserts one key/value pair: WAL append (group commit), memtable
// insert, seal on overflow, and stall handling when background work falls
// behind (RocksDB behaviour: too many immutable memtables or L0 files).
func (db *DB) Put(p *sim.Proc, key, val []byte) error {
	return db.write(p, key, val, false)
}

// Test-only: Delete writes a tombstone for key. No db_bench driver deletes
// yet; the tests hold tombstones through flush, compaction and replay.
func (db *DB) Delete(p *sim.Proc, key []byte) error {
	return db.write(p, key, nil, true)
}

func (db *DB) write(p *sim.Proc, key, val []byte, tomb bool) error {
	if db.stopping {
		return db.errClosed()
	}
	if len(key) == 0 || len(key) > 0xFFFF {
		return fmt.Errorf("lsmdb: invalid key length %d", len(key))
	}
	if db.cfg.CPUPerOp > 0 {
		p.Sleep(db.cfg.CPUPerOp)
	}
	for db.immQ.Len() >= maxImmutables || len(db.levels[0]) >= db.cfg.L0StallLimit {
		db.WriteStalls++
		db.flushKick.Signal()
		db.compactKick.Signal()
		db.stallEv.Rearm()
		p.Wait(db.stallEv)
		if db.stopping {
			return db.errClosed()
		}
	}
	db.seq++
	s := db.seq
	if err := db.walAppend(p, key, val, tomb, s); err != nil {
		return err
	}
	db.mem.insert(key, val, s, tomb)
	db.UserBytesIn += int64(len(key) + len(val))
	if db.mem.size >= db.cfg.MemtableSize {
		db.sealActive()
	}
	return nil
}

// sealActive moves the active memtable onto the immutable flush queue.
// The WAL mark taken here is where reclamation may advance once this
// memtable's flush commits.
func (db *DB) sealActive() {
	if db.mem.size == 0 {
		return
	}
	db.mem.walMark = db.walHead
	db.immQ.Push(db.mem)
	db.mem = db.memPool.Get()
	db.flushKick.Signal()
}

// fail records the first background I/O error and stops the engine
// (fail-stop, like a kernel filesystem going read-only): a device crash
// mid-run must park the engine, not panic the simulation. Subsequent
// operations return the original error.
func (db *DB) fail(err error) {
	if db.failed == nil {
		db.failed = err
	}
	db.stopping = true
	db.walKick.Signal()
	db.flushKick.Signal()
	db.compactKick.Signal()
	db.walBatch.Signal()
	db.advance()
}

// errClosed is the error for operations after Close or a failure.
func (db *DB) errClosed() error {
	if db.failed != nil {
		return db.failed
	}
	return ErrClosed
}

// advance signals flush/compaction progress to anyone waiting on WAL
// space or stall conditions.
func (db *DB) advance() {
	db.advanceEv.Signal()
	db.stallEv.Signal()
}

func (db *DB) waitAdvance(p *sim.Proc) {
	db.advanceEv.Rearm()
	p.Wait(db.advanceEv)
}

// ---- read path ----

// Get performs one point lookup: memtable, immutable memtables (newest
// first), L0 tables (newest first), then one candidate table per deeper
// level — each gated by the table's bloom filter, with data blocks served
// through the block cache. The value is appended to dst[:0] (pass a
// reusable buffer to keep the path allocation-free); ok reports whether
// the key exists.
func (db *DB) Get(p *sim.Proc, key, dst []byte) (val []byte, ok bool, err error) {
	if db.stopping {
		return dst, false, db.errClosed()
	}
	if db.cfg.CPUPerOp > 0 {
		p.Sleep(db.cfg.CPUPerOp)
	}
	db.Gets++
	if v, tomb, found := db.mem.get(key); found {
		return db.finishGet(dst, v, tomb)
	}
	for i := db.immQ.Len() - 1; i >= 0; i-- {
		if v, tomb, found := db.immQ.At(i).get(key); found {
			return db.finishGet(dst, v, tomb)
		}
	}
	// Capture each level's slice before descending into it: edits that
	// remove tables are copy-on-write, and compaction only moves data
	// downward, so a key always remains visible to this downward scan.
	l0 := db.levels[0]
	for i := len(l0) - 1; i >= 0; i-- {
		v, tomb, found, err := db.tableGet(p, l0[i], key)
		if err != nil {
			return dst, false, err
		}
		if found {
			return db.finishGet(dst, v, tomb)
		}
	}
	for lv := 1; lv < len(db.levels); lv++ {
		t := levelFind(db.levels[lv], key)
		if t == nil {
			continue
		}
		v, tomb, found, err := db.tableGet(p, t, key)
		if err != nil {
			return dst, false, err
		}
		if found {
			return db.finishGet(dst, v, tomb)
		}
	}
	return dst, false, nil
}

func (db *DB) finishGet(dst, v []byte, tomb bool) ([]byte, bool, error) {
	if tomb {
		return dst, false, nil
	}
	return append(dst[:0], v...), true, nil
}

// levelFind locates the single table of a sorted level that may hold key.
func levelFind(ts []*tableMeta, key []byte) *tableMeta {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if keyLess(ts[mid].maxKey, key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ts) || keyLess(key, ts[lo].minKey) {
		return nil
	}
	return ts[lo]
}

// ---- background processes ----

// flusher turns immutable memtables into L0 SSTables and commits the
// manifest so the WAL region behind them can be reclaimed.
func (db *DB) flusher(p *sim.Proc) {
	for {
		if db.immQ.Len() == 0 {
			if db.stopping {
				return
			}
			db.flushKick.Rearm()
			p.Wait(db.flushKick)
			continue
		}
		m := db.immQ.Front()
		db.flushing = true
		t, err := db.flushMemtable(p, m)
		db.flushing = false
		if err != nil {
			db.fail(fmt.Errorf("lsmdb: flush: %w", err))
			return
		}
		db.levels[0] = append(db.levels[0], t)
		db.levelBytes[0] += t.size
		db.FlushedBytes += t.size
		db.Flushes++
		if m.maxSeq > db.flushedSeq {
			db.flushedSeq = m.maxSeq
		}
		if m.walMark > db.walTail {
			db.walTail = m.walMark
		}
		if err := db.commitManifest(p); err != nil {
			db.fail(fmt.Errorf("lsmdb: manifest commit: %w", err))
			return
		}
		db.immQ.Pop()
		db.putMemtable(m)
		db.advance()
		if len(db.levels[0]) >= db.cfg.L0CompactionTrigger {
			db.compactKick.Signal()
		}
	}
}

// compactor merges levels over budget (compact.go holds the machinery).
func (db *DB) compactor(p *sim.Proc) {
	for {
		lv := db.pickCompaction()
		if lv < 0 {
			if db.stopping {
				return
			}
			db.compactKick.Rearm()
			p.Wait(db.compactKick)
			continue
		}
		db.compacting = true
		if err := db.compact(p, lv); err != nil {
			db.fail(fmt.Errorf("lsmdb: compaction: %w", err))
			return
		}
		db.compacting = false
		db.Compactions++
		db.advance()
	}
}

// Quiesce blocks until background flushes and compactions settle, so a
// read benchmark starts from a steady tree (db_bench's wait between
// phases).
func (db *DB) Quiesce(p *sim.Proc) {
	for db.failed == nil && (db.immQ.Len() > 0 || db.flushing || db.compacting || db.pickCompaction() >= 0) {
		db.flushKick.Signal()
		db.compactKick.Signal()
		p.Sleep(time.Millisecond)
	}
}

// Close drains the WAL, flushes the active memtable, waits for background
// work, and stops the engine. The on-device state is fully recoverable by
// a subsequent Open.
func (db *DB) Close(p *sim.Proc) error {
	if db.stopping {
		return db.failed
	}
	db.sealActive()
	for db.failed == nil && (db.immQ.Len() > 0 || db.flushing || db.compacting || len(db.walPend) > 0 || db.walActive) {
		db.flushKick.Signal()
		db.walKick.Signal()
		p.Sleep(500 * time.Microsecond)
	}
	db.stopping = true
	db.walKick.Signal()
	db.flushKick.Signal()
	db.compactKick.Signal()
	db.stallEv.Signal()
	p.Wait(db.walProc.Done())
	p.Wait(db.flushProc.Done())
	p.Wait(db.compactProc.Done())
	db.q.Drain(p)
	return db.failed
}
