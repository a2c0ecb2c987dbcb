package lsmdb

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/lightnvm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// Power-cut tests for the full stack: lsmdb over pblk over simulated NAND.
// The device is crashed mid-flush and mid-compaction (pblk crashpoint
// style), then both layers remount — pblk by media scan, lsmdb by manifest
// recovery plus WAL replay — and the recovered keyspace is compared
// against exactly what was durable at the cut.
//
// Durability contract checked per key: with gens written in seq order, the
// recovered value's generation must lie in [durable gen, last written
// gen] — nothing synced may be lost, nothing never-written may appear,
// and the visible state is a consistent prefix.

const crashKeys = 512

type crashEnv struct {
	t    *testing.T
	sim  *sim.Env
	dev  *ocssd.Device
	lnvm *lightnvm.Device
}

func newCrashEnv(t *testing.T) *crashEnv {
	t.Helper()
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	s := sim.NewEnv(11)
	dev, err := ocssd.New(s, ocssd.Config{
		Geometry: ppa.Geometry{
			Channels: 2, PUsPerChannel: 2, PlanesPerPU: 2,
			BlocksPerPlane: 40, PagesPerBlock: 32,
			SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
		},
		Timing: ocssd.DefaultTiming(), Media: m, PageCache: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &crashEnv{t: t, sim: s, dev: dev, lnvm: lightnvm.Register("nvme0n1", dev)}
}

// crashDBConfig downsizes the engine so flushes and compactions come fast
// on the small test device.
func crashDBConfig() Config {
	cfg := DefaultConfig()
	cfg.KeySize = 16
	cfg.ValueSize = 100
	cfg.MemtableSize = 64 << 10
	cfg.WALSize = 512 << 10
	cfg.WALSyncBytes = 8 << 10
	cfg.L0CompactionTrigger = 2
	cfg.L0StallLimit = 4
	cfg.LevelRatio = 4
	cfg.MaxLevels = 3
	cfg.BlockSize = 4 << 10
	cfg.TableTargetSize = 64 << 10
	cfg.BlockCacheSize = 128 << 10
	return cfg
}

// crashState is what the workload proc exposes to the crash controller.
type crashState struct {
	k  *pblk.Pblk
	db *DB
	// acked is the count of Puts that returned: the writer's view of the
	// last assigned sequence number (single writer, one seq per Put).
	acked int64
}

// runCrashWorkload mounts the stack and overwrites crashKeys round-robin
// (gen g covers seqs (g-1)*crashKeys+1 .. g*crashKeys) until the device
// dies under it.
func (e *crashEnv) runCrashWorkload(st *crashState, pcfg pblk.Config, dbcfg Config) {
	e.sim.Go("workload", func(p *sim.Proc) {
		k, err := pblk.New(p, e.lnvm, "pblk0", pcfg)
		if err != nil {
			e.t.Error(err)
			return
		}
		st.k = k
		db, err := Open(p, e.sim, k, dbcfg)
		if err != nil {
			e.t.Error(err)
			return
		}
		st.db = db
		var key, val []byte
		for i := int64(0); ; i++ {
			idx := i % crashKeys
			gen := i/crashKeys + 1
			key = db.benchKey(key, idx)
			val = db.benchVal(val, idx, gen)
			if err := db.Put(p, key, val); err != nil {
				return // power cut
			}
			st.acked = i + 1
		}
	})
}

// crashWhen steps the simulation until cond holds, then cuts power.
// Returns (syncedSeq, lastAckedSeq) captured at the instant of the cut.
func (e *crashEnv) crashWhen(st *crashState, what string, cond func() bool) (uint64, uint64) {
	e.t.Helper()
	deadline := e.sim.Now() + 60*time.Second
	for e.sim.Now() < deadline && !(st.db != nil && cond()) {
		e.sim.RunFor(100 * time.Microsecond)
	}
	if st.db == nil || !cond() {
		e.t.Fatalf("never observed %s before the deadline", what)
	}
	synced, last := st.db.SyncedSeq(), uint64(st.acked)
	st.k.Crash()
	e.sim.Run()
	return synced, last
}

// verifyRecovered remounts the stack (open returns the recovered engine)
// and checks the durability contract for every key.
func verifyRecovered(t *testing.T, p *sim.Proc, db2 *DB, synced, last uint64) {
	t.Helper()
	if db2.LastSeq() < synced {
		t.Errorf("recovered seq %d < synced seq %d: durable writes lost", db2.LastSeq(), synced)
	}
	lastAll := last
	if db2.LastSeq() > lastAll {
		lastAll = db2.LastSeq() // batch written, crash before the ack
	}
	var key, dst []byte
	for idx := int64(0); idx < crashKeys; idx++ {
		// Generations of this key: gen g sits at seq (g-1)*crashKeys+idx+1.
		gDur := (int64(synced) - idx - 1 + crashKeys) / crashKeys
		if gDur < 0 {
			gDur = 0
		}
		gLast := (int64(lastAll) - idx - 1 + crashKeys) / crashKeys
		key = db2.benchKey(key, idx)
		var ok bool
		var err error
		dst, ok, err = db2.Get(p, key, dst)
		if err != nil {
			t.Errorf("key %d: get after recovery: %v", idx, err)
			return
		}
		if !ok {
			if gDur > 0 {
				t.Errorf("key %d: durable generation %d lost in crash", idx, gDur)
				return
			}
			continue
		}
		gotIdx := int64(binary.BigEndian.Uint64(dst[0:8]))
		gotGen := int64(binary.BigEndian.Uint64(dst[8:16]))
		if gotIdx != idx {
			t.Errorf("key %d: payload stamped for key %d", idx, gotIdx)
			return
		}
		if gotGen < gDur || gotGen > gLast {
			t.Errorf("key %d: recovered gen %d outside durable window [%d,%d]", idx, gotGen, gDur, gLast)
			return
		}
	}
}

func TestCrashMidFlushRecovers(t *testing.T) {
	e := newCrashEnv(t)
	pcfg := pblk.Config{ActivePUs: 4, OverProvision: 0.3}
	dbcfg := crashDBConfig()
	st := &crashState{}
	e.runCrashWorkload(st, pcfg, dbcfg)
	synced, last := e.crashWhen(st, "a flush in progress", func() bool { return st.db.Flushing() })

	e.sim.Go("verify", func(p *sim.Proc) {
		k2, err := pblk.New(p, e.lnvm, "pblk0", pcfg)
		if err != nil {
			t.Error(err)
			return
		}
		if k2.Stats.Recoveries != 1 {
			t.Error("pblk must remount by scan recovery after the cut")
		}
		db2, err := Open(p, e.sim, k2, dbcfg)
		if err != nil {
			t.Errorf("lsmdb reopen after mid-flush crash: %v", err)
			return
		}
		verifyRecovered(t, p, db2, synced, last)
		if err := db2.Close(p); err != nil {
			t.Error(err)
		}
		k2.Stop(p)
	})
	e.sim.Run()
}

// TestCrashMidCompactionRecovers cuts power while a compaction merge is
// rewriting tables, with cold hints feeding pblk's hint-aware stream — the
// manifest's double slot must fall back to the last committed level state
// and no durable key may be lost.
func TestCrashMidCompactionRecovers(t *testing.T) {
	e := newCrashEnv(t)
	pcfg := pblk.Config{ActivePUs: 4, OverProvision: 0.3}
	dbcfg := crashDBConfig()
	dbcfg.ColdHints = true
	st := &crashState{}
	e.runCrashWorkload(st, pcfg, dbcfg)
	synced, last := e.crashWhen(st, "a compaction in progress", func() bool { return st.db.Compacting() })

	e.sim.Go("verify", func(p *sim.Proc) {
		k2, err := pblk.New(p, e.lnvm, "pblk0", pcfg)
		if err != nil {
			t.Error(err)
			return
		}
		db2, err := Open(p, e.sim, k2, dbcfg)
		if err != nil {
			t.Errorf("lsmdb reopen after mid-compaction crash: %v", err)
			return
		}
		verifyRecovered(t, p, db2, synced, last)
		if err := db2.Close(p); err != nil {
			t.Error(err)
		}
		k2.Stop(p)
	})
	e.sim.Run()
}

// TestCrashOnTenantPartition runs the same power-cut on a partition-scoped
// pblk target (half the device's PUs): the engine's durability contract
// must hold on a shared device, and the crash must release the partition
// for the remount.
func TestCrashOnTenantPartition(t *testing.T) {
	e := newCrashEnv(t)
	mount := func(p *sim.Proc) (*pblk.Pblk, error) {
		v, err := e.lnvm.Reserve("tenant0", lightnvm.PURange{Begin: 0, End: 2})
		if err != nil {
			return nil, err
		}
		return pblk.NewView(p, v, pblk.Config{ActivePUs: 2, OverProvision: 0.3})
	}
	dbcfg := crashDBConfig()

	st := &crashState{}
	e.sim.Go("workload", func(p *sim.Proc) {
		k, err := mount(p)
		if err != nil {
			t.Error(err)
			return
		}
		st.k = k
		db, err := Open(p, e.sim, k, dbcfg)
		if err != nil {
			t.Error(err)
			return
		}
		st.db = db
		var key, val []byte
		for i := int64(0); ; i++ {
			idx := i % crashKeys
			key = db.benchKey(key, idx)
			val = db.benchVal(val, idx, i/crashKeys+1)
			if err := db.Put(p, key, val); err != nil {
				return
			}
			st.acked = i + 1
		}
	})
	synced, last := e.crashWhen(st, "a flush in progress", func() bool { return st.db.Flushing() })

	e.sim.Go("verify", func(p *sim.Proc) {
		// Host restart: the crash released the partition, so the tenant
		// remounts on it at once.
		k2, err := mount(p)
		if err != nil {
			t.Error(err)
			return
		}
		db2, err := Open(p, e.sim, k2, dbcfg)
		if err != nil {
			t.Errorf("lsmdb reopen on tenant partition: %v", err)
			return
		}
		verifyRecovered(t, p, db2, synced, last)
		if err := db2.Close(p); err != nil {
			t.Error(err)
		}
		k2.Stop(p)
	})
	e.sim.Run()
}
