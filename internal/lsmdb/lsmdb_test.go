package lsmdb

import (
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/nullblk"
	"repro/internal/sim"
)

// memDevice is a RAM-backed device for correctness tests: unlike nullblk
// it stores real bytes, so point lookups, reopen recovery, and WAL replay
// can be verified against what was written. Trimmed ranges read back as
// zeros, matching an FTL dropping the mapping.
type memDevice struct {
	ss   int
	data []byte
	rlat time.Duration
	wlat time.Duration

	Reads, Writes, Flushes, Trims int64
}

func newMemDevice(capacity int64) *memDevice {
	return &memDevice{
		ss: 4096, data: make([]byte, capacity),
		rlat: 20 * time.Microsecond, wlat: 40 * time.Microsecond,
	}
}

func (d *memDevice) SectorSize() int { return d.ss }
func (d *memDevice) Capacity() int64 { return int64(len(d.data)) }

func (d *memDevice) OpenQueue(env *sim.Env, depth int) blockdev.Queue {
	return blockdev.NewQueue(env, d, depth, func(r *blockdev.Request, done func(*blockdev.Request)) {
		lat, mem := d.rlat, d.data[r.Off:r.Off+r.Length]
		if r.Op == blockdev.ReqWrite || r.Op == blockdev.ReqFlush {
			lat = d.wlat
		}
		env.Schedule(lat, func() {
			switch r.Op {
			case blockdev.ReqRead:
				copy(r.Buf, mem)
				d.Reads++
			case blockdev.ReqWrite:
				copy(mem, r.Buf)
				d.Writes++
			case blockdev.ReqFlush:
				d.Flushes++
			case blockdev.ReqTrim:
				clear(mem)
				d.Trims++
			}
			done(r)
		})
	})
}

// testConfig is a downscaled engine: 64 KB memtables and 116 B entries so
// a few thousand Puts exercise flushes, L0 compactions, and deeper-level
// merges in a fast simulation.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.KeySize = 16
	cfg.ValueSize = 100
	cfg.MemtableSize = 64 << 10
	cfg.WALSize = 512 << 10
	cfg.WALSyncBytes = 16 << 10
	cfg.LevelRatio = 4
	cfg.BlockSize = 4 << 10
	cfg.TableTargetSize = 128 << 10
	cfg.BlockCacheSize = 256 << 10
	return cfg
}

func openDB(t *testing.T, env *sim.Env, dev Device, cfg Config) *DB {
	t.Helper()
	var db *DB
	env.Go("open", func(p *sim.Proc) {
		var err error
		db, err = Open(p, env, dev, cfg)
		if err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if db == nil {
		t.Fatal("open did not complete")
	}
	return db
}

func runDB(env *sim.Env, fn func(p *sim.Proc)) {
	env.Go("test", fn)
	env.Run()
}

// checkStamp verifies a value read back carries the expected key index and
// generation stamp (see benchVal).
func checkStamp(t *testing.T, val []byte, idx, gen int64) bool {
	t.Helper()
	if len(val) < 16 {
		t.Errorf("key %d: value %d bytes, want >= 16", idx, len(val))
		return false
	}
	gotIdx := int64(binary.BigEndian.Uint64(val[0:8]))
	gotGen := int64(binary.BigEndian.Uint64(val[8:16]))
	if gotIdx != idx || gotGen != gen {
		t.Errorf("key %d: stamped (idx=%d gen=%d), want (idx=%d gen=%d)", idx, gotIdx, gotGen, idx, gen)
		return false
	}
	return true
}

func TestPutGetMemtableOnly(t *testing.T) {
	env := sim.NewEnv(1)
	db := openDB(t, env, newMemDevice(64<<20), testConfig())
	runDB(env, func(p *sim.Proc) {
		var key, val, dst []byte
		for i := int64(0); i < 100; i++ {
			key = db.benchKey(key, i)
			val = db.benchVal(val, i, 1)
			if err := db.Put(p, key, val); err != nil {
				t.Error(err)
				return
			}
		}
		for i := int64(0); i < 100; i++ {
			key = db.benchKey(key, i)
			var ok bool
			var err error
			dst, ok, err = db.Get(p, key, dst)
			if err != nil || !ok {
				t.Errorf("key %d: ok=%v err=%v", i, ok, err)
				return
			}
			if !checkStamp(t, dst, i, 1) {
				return
			}
		}
		key = db.benchKey(key, 100000)
		if _, ok, _ := db.Get(p, key, dst); ok {
			t.Error("missing key reported found")
		}
		key = db.benchKey(key, 7)
		if err := db.Delete(p, key); err != nil {
			t.Error(err)
			return
		}
		if _, ok, _ := db.Get(p, key, dst); ok {
			t.Error("deleted key still visible in memtable")
		}
		if err := db.Close(p); err != nil {
			t.Error(err)
		}
	})
}

// TestGetThroughFlushAndCompaction is the point-lookup correctness test of
// the issue: enough writes to push data through memtable seals, L0
// flushes, and multi-level compactions, with overwrites and deletes, then
// every key verified against the newest stamp.
func TestGetThroughFlushAndCompaction(t *testing.T) {
	const n = 12000
	env := sim.NewEnv(1)
	db := openDB(t, env, newMemDevice(128<<20), testConfig())
	runDB(env, func(p *sim.Proc) {
		var key, val, dst []byte
		put := func(i, gen int64) bool {
			key = db.benchKey(key, i)
			val = db.benchVal(val, i, gen)
			if err := db.Put(p, key, val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return false
			}
			return true
		}
		for i := int64(0); i < n; i++ {
			if !put(i, 1) {
				return
			}
		}
		for i := int64(0); i < n; i += 3 {
			if !put(i, 2) {
				return
			}
		}
		for i := int64(0); i < n; i += 7 {
			key = db.benchKey(key, i)
			if err := db.Delete(p, key); err != nil {
				t.Errorf("delete %d: %v", i, err)
				return
			}
		}
		db.Quiesce(p)
		if db.Flushes == 0 || db.Compactions == 0 {
			t.Errorf("workload too small: flushes=%d compactions=%d", db.Flushes, db.Compactions)
		}
		if db.TrimmedBytes == 0 {
			t.Error("compaction freed no extents (no trims issued)")
		}
		lt := db.LevelTables()
		deeper := 0
		for _, c := range lt[1:] {
			deeper += c
		}
		if deeper == 0 {
			t.Errorf("no tables below L0: levels=%v", lt)
		}
		for i := int64(0); i < n; i++ {
			key = db.benchKey(key, i)
			var ok bool
			var err error
			dst, ok, err = db.Get(p, key, dst)
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			if i%7 == 0 {
				if ok {
					t.Errorf("key %d: deleted but still visible", i)
					return
				}
				continue
			}
			if !ok {
				t.Errorf("key %d: missing after compaction", i)
				return
			}
			gen := int64(1)
			if i%3 == 0 {
				gen = 2
			}
			if !checkStamp(t, dst, i, gen) {
				return
			}
		}
		if db.BloomSkips == 0 {
			t.Error("bloom filters never skipped a table")
		}
		if db.CacheHits == 0 {
			t.Error("block cache never hit")
		}
		if err := db.Close(p); err != nil {
			t.Error(err)
		}
	})
}

// TestReopenRecovery closes a populated engine and reopens it on the same
// device: the manifest restores the levels and reads see everything.
func TestReopenRecovery(t *testing.T) {
	const n = 3000
	md := newMemDevice(128 << 20)
	cfg := testConfig()

	env := sim.NewEnv(1)
	db := openDB(t, env, md, cfg)
	var lastSeq uint64
	runDB(env, func(p *sim.Proc) {
		var key, val []byte
		for i := int64(0); i < n; i++ {
			key = db.benchKey(key, i)
			val = db.benchVal(val, i, 1)
			if err := db.Put(p, key, val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		for i := int64(0); i < n; i += 5 {
			key = db.benchKey(key, i)
			if err := db.Delete(p, key); err != nil {
				t.Errorf("delete %d: %v", i, err)
				return
			}
		}
		lastSeq = db.LastSeq()
		if err := db.Close(p); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		return
	}

	env2 := sim.NewEnv(2)
	db2 := openDB(t, env2, md, cfg)
	runDB(env2, func(p *sim.Proc) {
		if db2.LastSeq() < lastSeq {
			t.Errorf("recovered seq %d, want >= %d", db2.LastSeq(), lastSeq)
		}
		var key, val, dst []byte
		for i := int64(0); i < n; i++ {
			key = db2.benchKey(key, i)
			var ok bool
			var err error
			dst, ok, err = db2.Get(p, key, dst)
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			if i%5 == 0 {
				if ok {
					t.Errorf("key %d: deleted before close but visible after reopen", i)
					return
				}
				continue
			}
			if !ok {
				t.Errorf("key %d: lost across reopen", i)
				return
			}
			if !checkStamp(t, dst, i, 1) {
				return
			}
		}
		// The reopened engine keeps working: overwrite and read back.
		for i := int64(0); i < 100; i++ {
			key = db2.benchKey(key, i)
			val = db2.benchVal(val, i, 9)
			if err := db2.Put(p, key, val); err != nil {
				t.Errorf("put after reopen: %v", err)
				return
			}
		}
		key = db2.benchKey(key, 42)
		dst, ok, err := db2.Get(p, key, dst)
		if err != nil || !ok {
			t.Errorf("get after reopen write: ok=%v err=%v", ok, err)
			return
		}
		checkStamp(t, dst, 42, 9)
		if err := db2.Close(p); err != nil {
			t.Error(err)
		}
	})
}

// Table images take uniform slots: a compaction output one, the flush of a
// memtable larger than TableTargetSize several, and always the lowest free
// run of them. Recovery marks the same slots from the manifest and rejects
// a table off a slot boundary, because the manifest is input read from the
// device.
func TestTableSlots(t *testing.T) {
	const n = 3000
	md := newMemDevice(128 << 20)
	cfg := testConfig()
	cfg.TableTargetSize = 16 << 10 // below the 64 KiB memtable: flushes span slots
	env := sim.NewEnv(1)
	db := openDB(t, env, md, cfg)
	runDB(env, func(p *sim.Proc) {
		var key, val []byte
		for i := int64(0); i < n; i++ {
			key, val = db.benchKey(key, i), db.benchVal(val, i, 1)
			if err := db.Put(p, key, val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
		db.Quiesce(p)
		multi := false
		for _, lv := range db.levels {
			for _, tb := range lv {
				rel := tb.off - db.areaBase
				if rel%db.tableSlot != 0 || slices.Contains(db.slotUsed[rel/db.tableSlot:][:db.slots(tb.size)], false) {
					t.Errorf("table %d at %d does not hold its slots", tb.id, tb.off)
				}
				multi = multi || db.slots(tb.size) > 1
			}
		}
		if !multi {
			t.Error("no table spans more than one slot")
		}
		// With slots 0, 2 and 3 free, a two-slot image takes 2 and 3, a
		// one-slot image then takes 0, and nothing fits after that.
		saved := slices.Clone(db.slotUsed)
		for i := range db.slotUsed {
			db.slotUsed[i] = i == 1 || i > 3
		}
		if off, err := db.allocSlots(2); err != nil || off != db.areaBase+2*db.tableSlot {
			t.Errorf("allocSlots(2) = %d, %v; want slot 2 at %d", off, err, db.areaBase+2*db.tableSlot)
		}
		if off, err := db.allocSlots(1); err != nil || off != db.areaBase {
			t.Errorf("allocSlots(1) = %d, %v; want slot 0 at %d", off, err, db.areaBase)
		}
		if _, err := db.allocSlots(1); err == nil {
			t.Error("a full table area allocated a slot")
		}
		copy(db.slotUsed, saved)
		if err := db.Close(p); err != nil {
			t.Error(err)
		}
	})

	env2 := sim.NewEnv(2)
	db2 := openDB(t, env2, md, cfg)
	if !slices.Equal(db2.slotUsed, db.slotUsed) {
		t.Error("reopen marked other slots used than the closed engine held")
	}
	runDB(env2, func(p *sim.Proc) {
		var key, dst []byte
		for i := int64(0); i < n; i++ {
			key = db2.benchKey(key, i)
			var ok bool
			var err error
			if dst, ok, err = db2.Get(p, key, dst); err != nil || !ok || !checkStamp(t, dst, i, 1) {
				t.Errorf("key %d after reopen: ok=%v err=%v", i, ok, err)
				return
			}
		}
		// Shift one live table off its slot boundary in a committed
		// manifest, then abandon the engine.
		for _, lv := range db2.levels {
			if len(lv) > 0 {
				lv[0].off += db2.ss
				break
			}
		}
		if err := db2.commitManifest(p); err != nil {
			t.Fatal(err)
		}
	})
	env3 := sim.NewEnv(3)
	runDB(env3, func(p *sim.Proc) {
		if _, err := Open(p, env3, md, cfg); err == nil || !strings.Contains(err.Error(), "bad extent") {
			t.Errorf("reopen over a misaligned manifest table: %v, want a bad extent error", err)
		}
	})
}

// TestDirtyReopenReplaysWAL abandons the engine without Close — the
// simulated equivalent of a process kill with the device intact — and
// checks a fresh Open rebuilds the memtable from the log alone (nothing
// was ever flushed to an SSTable).
func TestDirtyReopenReplaysWAL(t *testing.T) {
	const n = 300
	md := newMemDevice(64 << 20)
	cfg := testConfig()
	// A single synced writer burns one sector-aligned batch per Put: keep
	// the WAL big enough that no WAL-full seal flushes anything.
	cfg.WALSize = 4 << 20

	env := sim.NewEnv(1)
	db := openDB(t, env, md, cfg)
	runDB(env, func(p *sim.Proc) {
		var key, val []byte
		for i := int64(0); i < n; i++ {
			key = db.benchKey(key, i)
			val = db.benchVal(val, i, 3)
			if err := db.Put(p, key, val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
		}
	})
	if t.Failed() {
		return
	}
	if db.Flushes != 0 {
		t.Fatalf("workload unexpectedly flushed (%d): WAL replay not isolated", db.Flushes)
	}

	env2 := sim.NewEnv(2)
	db2 := openDB(t, env2, md, cfg)
	runDB(env2, func(p *sim.Proc) {
		if db2.LastSeq() != uint64(n) {
			t.Errorf("replayed seq %d, want %d", db2.LastSeq(), n)
		}
		var key, dst []byte
		for i := int64(0); i < n; i++ {
			key = db2.benchKey(key, i)
			var ok bool
			var err error
			dst, ok, err = db2.Get(p, key, dst)
			if err != nil || !ok {
				t.Errorf("key %d: ok=%v err=%v after WAL replay", i, ok, err)
				return
			}
			if !checkStamp(t, dst, i, 3) {
				return
			}
		}
		if err := db2.Close(p); err != nil {
			t.Error(err)
		}
	})
}

// TestSyncWALGroupCommit runs concurrent writers on the synced WAL: device
// flushes must be issued, but group commit shares them — far fewer syncs
// than Puts.
func TestSyncWALGroupCommit(t *testing.T) {
	env := sim.NewEnv(1)
	md := newMemDevice(64 << 20)
	db := openDB(t, env, md, testConfig())
	const writers, each = 4, 200
	done := 0
	for w := 0; w < writers; w++ {
		w := w
		env.Go("writer", func(p *sim.Proc) {
			var key, val []byte
			for i := 0; i < each; i++ {
				idx := int64(w*each + i)
				key = db.benchKey(key, idx)
				val = db.benchVal(val, idx, 1)
				if err := db.Put(p, key, val); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
			done++
		})
	}
	env.Run()
	if done != writers {
		t.Fatalf("%d of %d writers finished", done, writers)
	}
	if db.Syncs == 0 || md.Flushes == 0 {
		t.Fatalf("sync WAL issued no flushes (syncs=%d devFlushes=%d)", db.Syncs, md.Flushes)
	}
	if db.Syncs >= writers*each {
		t.Fatalf("no group commit: %d syncs for %d puts", db.Syncs, writers*each)
	}
	runDB(env, func(p *sim.Proc) { db.Close(p) })
}

func TestDisableWAL(t *testing.T) {
	cfg := testConfig()
	cfg.DisableWAL = true
	env := sim.NewEnv(1)
	db := openDB(t, env, newMemDevice(64<<20), cfg)
	runDB(env, func(p *sim.Proc) {
		var key, val, dst []byte
		for i := int64(0); i < 2000; i++ {
			key = db.benchKey(key, i)
			val = db.benchVal(val, i, 1)
			if err := db.Put(p, key, val); err != nil {
				t.Error(err)
				return
			}
		}
		db.Quiesce(p)
		key = db.benchKey(key, 1500)
		dst, ok, err := db.Get(p, key, dst)
		if err != nil || !ok {
			t.Errorf("get with WAL disabled: ok=%v err=%v", ok, err)
			return
		}
		checkStamp(t, dst, 1500, 1)
		db.Close(p)
	})
	if db.WALBytes != 0 {
		t.Fatalf("DisableWAL set but %d WAL bytes written", db.WALBytes)
	}
}

// TestWriteStalls slows the device so flushing falls behind the writer:
// the immutable-memtable cap must stall Puts rather than queue unbounded
// memory, and the data must still be intact afterwards.
func TestWriteStalls(t *testing.T) {
	cfg := testConfig()
	cfg.MemtableSize = 16 << 10
	cfg.DisableWAL = true // let the writer outrun memtable flushing
	md := newMemDevice(64 << 20)
	md.wlat = 2 * time.Millisecond
	env := sim.NewEnv(1)
	db := openDB(t, env, md, cfg)
	runDB(env, func(p *sim.Proc) {
		var key, val, dst []byte
		for i := int64(0); i < 2000; i++ {
			key = db.benchKey(key, i)
			val = db.benchVal(val, i, 1)
			if err := db.Put(p, key, val); err != nil {
				t.Error(err)
				return
			}
		}
		db.Quiesce(p)
		key = db.benchKey(key, 1234)
		dst, ok, err := db.Get(p, key, dst)
		if err != nil || !ok {
			t.Errorf("get after stalled fill: ok=%v err=%v", ok, err)
			return
		}
		checkStamp(t, dst, 1234, 1)
		db.Close(p)
	})
	if db.WriteStalls == 0 {
		t.Fatal("slow device never stalled writers")
	}
}

// ---- db_bench-style drivers over nullblk (latency-only datapath) ----

func newNullDB(t *testing.T, cfg Config) (*sim.Env, *DB, *nullblk.Device) {
	t.Helper()
	env := sim.NewEnv(1)
	nb := nullblk.New(nullblk.Config{
		SectorSize: 4096, CapacityB: 4 << 30,
		ReadLatency: 80 * time.Microsecond, WriteLatency: 100 * time.Microsecond,
	})
	db := openDB(t, env, nb, cfg)
	return env, db, nb
}

func TestDriversOverNullblk(t *testing.T) {
	env, db, nb := newNullDB(t, testConfig())
	runDB(env, func(p *sim.Proc) {
		if r := FillSeqN(p, db, 2, 3000); r.Ops != 3000 || r.Lat.Count() != 3000 || db.Loaded() != 3000 {
			t.Errorf("fillseq ops=%d latSamples=%d loaded=%d, want 3000", r.Ops, r.Lat.Count(), db.Loaded())
		}
		if r := FillRandomN(p, db, 2, 2000); r.Ops != 2000 {
			t.Errorf("fillrandom ops = %d, want 2000", r.Ops)
		}
		if r := OverwriteRandomN(p, db, 2, 1000, 1); r.Ops != 1000 {
			t.Errorf("overwrite ops = %d, want 1000", r.Ops)
		}
		if r := ReadRandom(p, db, 2, 30*time.Millisecond); r.Ops == 0 {
			t.Error("readrandom made no progress")
		}
		r := ReadWhileWriting(p, db, 2, 30*time.Millisecond)
		if r.Ops == 0 || r.WriteLat.Count() == 0 {
			t.Errorf("readwhilewriting: reads=%d writes=%d", r.Ops, r.WriteLat.Count())
		}
		db.Close(p)
	})
	if nb.Writes == 0 || nb.Flushes == 0 {
		t.Fatalf("datapath never reached the device (writes=%d flushes=%d)", nb.Writes, nb.Flushes)
	}
	if db.FlushedBytes == 0 {
		t.Fatal("drivers never flushed a memtable")
	}
}

// TestDriversOnClosedDB: every driver run on a closed engine returns
// ErrClosed in its result instead of panicking.
func TestDriversOnClosedDB(t *testing.T) {
	env, db, _ := newNullDB(t, testConfig())
	runDB(env, func(p *sim.Proc) {
		FillSeqN(p, db, 1, 100)
		if err := db.Close(p); err != nil {
			t.Fatal(err)
		}
		for _, r := range []*BenchResult{
			FillSeqN(p, db, 2, 100),
			FillRandomN(p, db, 2, 100),
			OverwriteRandomN(p, db, 2, 100, 1),
			ReadRandom(p, db, 2, time.Millisecond),
			ReadWhileWriting(p, db, 2, time.Millisecond),
		} {
			if !errors.Is(r.Err, ErrClosed) || r.Ops != 0 {
				t.Errorf("%s on a closed DB: Err %v, %d ops; want ErrClosed, 0", r.Name, r.Err, r.Ops)
			}
		}
	})
}

// BenchmarkLSMReadWrite measures the mixed Put+Get hot path over nullblk.
// Watch allocs/op: the pooled datapath (requests, block buffers, memtables,
// iterators) must stay allocation-free in steady state up to event churn.
func BenchmarkLSMReadWrite(b *testing.B) {
	env := sim.NewEnv(1)
	nb := nullblk.New(nullblk.Config{
		SectorSize: 4096, CapacityB: 8 << 30,
		ReadLatency: 80 * time.Microsecond, WriteLatency: 100 * time.Microsecond,
	})
	cfg := testConfig()
	cfg.MemtableSize = 4 << 20
	cfg.WALSize = 16 << 20
	var db *DB
	env.Go("open", func(p *sim.Proc) {
		var err error
		db, err = Open(p, env, nb, cfg)
		if err != nil {
			b.Error(err)
		}
	})
	env.Run()
	if db == nil {
		b.Fatal("open did not complete")
	}
	env.Go("bench", func(p *sim.Proc) {
		const keyspace = 10000
		w := db.newWorker(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx := int64(i % keyspace)
			w.key = db.benchKey(w.key, idx)
			w.val = db.benchVal(w.val, idx, int64(i))
			if err := db.Put(p, w.key, w.val); err != nil {
				b.Errorf("put: %v", err)
				return
			}
			w.key = db.benchKey(w.key, w.rng.Int63n(keyspace))
			var err error
			w.dst, _, err = db.Get(p, w.key, w.dst)
			if err != nil {
				b.Errorf("get: %v", err)
				return
			}
		}
		b.StopTimer()
		db.Close(p)
	})
	env.Run()
}
