package lsmdb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// db_bench-style workload drivers. Keys are KeySize-byte big-endian
// zero-padded indices (bytes.Compare == numeric order); values carry the
// key index in their first 8 bytes so correctness and crash tests can
// check what they read. Each worker owns its key/value scratch buffers,
// so the drivers add no per-op allocation on top of the engine.

// BenchResult reports one workload run.
type BenchResult struct {
	Name     string
	Ops      int64
	UserMBps float64
	Lat      stats.Hist // per-op latency of the measured op type
	ReadLat  stats.Hist // for mixed workloads: reader latency
	WriteLat stats.Hist // for mixed workloads: writer latency
	Elapsed  time.Duration
	Stalls   int64
}

// benchKey encodes index i into the trailing 8 bytes of a KeySize key.
func (db *DB) benchKey(dst []byte, i int64) []byte {
	n := db.cfg.KeySize
	if n < 8 {
		n = 8
	}
	dst = padTo(dst[:0], n-8)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return append(dst, b[:]...)
}

// benchVal fills a ValueSize value stamped with the key index and a
// generation counter (for overwrite verification).
func (db *DB) benchVal(dst []byte, i, gen int64) []byte {
	n := db.cfg.ValueSize
	if n < 16 {
		n = 16
	}
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	binary.BigEndian.PutUint64(dst[0:8], uint64(i))
	binary.BigEndian.PutUint64(dst[8:16], uint64(gen))
	return dst
}

func (db *DB) noteLoaded(i int64) {
	if i+1 > db.loaded {
		db.loaded = i + 1
	}
}

// Loaded returns the number of distinct key indices the drivers have
// written (the populated keyspace for read phases).
func (db *DB) Loaded() int64 { return db.loaded }

type worker struct {
	key []byte
	val []byte
	dst []byte
	rng *rand.Rand
}

func (db *DB) newWorker(id int64) *worker {
	return &worker{rng: rand.New(rand.NewSource(db.cfg.Seed + 77*id))}
}

// FillSeqN loads a fixed number of entries using `threads` concurrent
// writers (db_bench fillseq with --threads): group commit shares WAL
// syncs across writers, and the run ends when the volume target is met,
// so the tree is populated deterministically for later read benchmarks.
func FillSeqN(p *sim.Proc, db *DB, threads int, entries int64) *BenchResult {
	return fillN(p, db, threads, entries, false)
}

// FillRandomN loads `entries` Puts with uniformly random keys over a
// keyspace of the same size (db_bench fillrandom): overwrites and
// out-of-order keys drive real compaction merges.
func FillRandomN(p *sim.Proc, db *DB, threads int, entries int64) *BenchResult {
	return fillN(p, db, threads, entries, true)
}

func fillN(p *sim.Proc, db *DB, threads int, entries int64, random bool) *BenchResult {
	if threads < 1 {
		threads = 1
	}
	name := "fillseq"
	if random {
		name = "fillrandom"
	}
	res := &BenchResult{Name: name}
	env := p.Env()
	start := env.Now()
	done := env.NewEvent()
	running := threads
	remaining := entries
	next := db.loaded
	if random {
		db.noteLoaded(entries - 1)
	}
	for i := 0; i < threads; i++ {
		w := db.newWorker(int64(i))
		env.Go(fmt.Sprintf("db_bench.filler%d", i), func(pw *sim.Proc) {
			defer func() {
				running--
				if running == 0 {
					done.Signal()
				}
			}()
			for remaining > 0 {
				remaining--
				var idx int64
				if random {
					idx = w.rng.Int63n(entries)
				} else {
					idx = next
					next++
				}
				w.key = db.benchKey(w.key, idx)
				w.val = db.benchVal(w.val, idx, 0)
				t0 := env.Now()
				if err := db.Put(pw, w.key, w.val); err != nil {
					panic(err)
				}
				res.Lat.Add(env.Now() - t0)
				res.Ops++
				if !random {
					db.noteLoaded(idx)
				}
			}
		})
	}
	p.Wait(done)
	res.Elapsed = env.Now() - start
	res.UserMBps = stats.Throughput(res.Ops*db.entrySize(), res.Elapsed)
	res.Stalls = db.WriteStalls
	return res
}

// OverwriteRandomN overwrites a fixed count of random existing keys
// (db_bench overwrite with a volume target instead of a clock) — the
// steady state whose write amplification wa-e2e measures, over an exact
// number of drive-writes so results are comparable across stacks. round distinguishes successive
// passes so each draws a fresh key sequence.
func OverwriteRandomN(p *sim.Proc, db *DB, threads int, count, round int64) *BenchResult {
	if threads < 1 {
		threads = 1
	}
	res := &BenchResult{Name: "overwrite"}
	env := p.Env()
	start := env.Now()
	done := env.NewEvent()
	running := threads
	remaining := count
	space := db.loaded
	if space <= 0 {
		space = 1
	}
	for i := 0; i < threads; i++ {
		w := db.newWorker(1000*round + int64(i))
		env.Go(fmt.Sprintf("db_bench.overwriter%d", i), func(pw *sim.Proc) {
			defer func() {
				running--
				if running == 0 {
					done.Signal()
				}
			}()
			for remaining > 0 {
				remaining--
				idx := w.rng.Int63n(space)
				w.key = db.benchKey(w.key, idx)
				w.val = db.benchVal(w.val, idx, round)
				t0 := env.Now()
				if err := db.Put(pw, w.key, w.val); err != nil {
					panic(err)
				}
				res.Lat.Add(env.Now() - t0)
				res.Ops++
			}
		})
	}
	p.Wait(done)
	res.Elapsed = env.Now() - start
	res.UserMBps = stats.Throughput(res.Ops*db.entrySize(), res.Elapsed)
	res.Stalls = db.WriteStalls
	return res
}

// ReadRandom runs point lookups with `threads` parallel readers
// (db_bench readrandom) over the loaded keyspace.
func ReadRandom(p *sim.Proc, db *DB, threads int, d time.Duration) *BenchResult {
	res := &BenchResult{Name: "readrandom"}
	env := p.Env()
	start := env.Now()
	done := env.NewEvent()
	running := threads
	space := db.loaded
	if space <= 0 {
		space = 1
	}
	for i := 0; i < threads; i++ {
		w := db.newWorker(2000 + int64(i))
		env.Go(fmt.Sprintf("db_bench.reader%d", i), func(pr *sim.Proc) {
			defer func() {
				running--
				if running == 0 {
					done.Signal()
				}
			}()
			for env.Now() < start+d {
				w.key = db.benchKey(w.key, w.rng.Int63n(space))
				t0 := env.Now()
				var err error
				w.dst, _, err = db.Get(pr, w.key, w.dst)
				if err != nil {
					panic(err)
				}
				res.Lat.Add(env.Now() - t0)
				res.Ops++
			}
		})
	}
	p.Wait(done)
	res.Elapsed = env.Now() - start
	res.UserMBps = stats.Throughput(res.Ops*db.entrySize(), res.Elapsed)
	return res
}

// ReadWhileWriting runs `threads` readers against one full-speed random
// overwriter (db_bench readwhilewriting). Reported throughput covers
// reads, matching db_bench; writer volume is in the DB counters.
func ReadWhileWriting(p *sim.Proc, db *DB, threads int, d time.Duration) *BenchResult {
	res := &BenchResult{Name: "readwhilewriting"}
	env := p.Env()
	start := env.Now()
	stop := false
	space := db.loaded
	if space <= 0 {
		space = 1
	}
	wDone := env.NewEvent()
	ww := db.newWorker(3000)
	env.Go("db_bench.writer", func(pw *sim.Proc) {
		defer wDone.Signal()
		gen := int64(1 << 20)
		for !stop {
			idx := ww.rng.Int63n(space)
			ww.key = db.benchKey(ww.key, idx)
			ww.val = db.benchVal(ww.val, idx, gen)
			t0 := env.Now()
			if err := db.Put(pw, ww.key, ww.val); err != nil {
				panic(err)
			}
			res.WriteLat.Add(env.Now() - t0)
			gen++
		}
	})
	done := env.NewEvent()
	running := threads
	for i := 0; i < threads; i++ {
		w := db.newWorker(4000 + int64(i))
		env.Go(fmt.Sprintf("db_bench.reader%d", i), func(pr *sim.Proc) {
			defer func() {
				running--
				if running == 0 {
					done.Signal()
				}
			}()
			for env.Now() < start+d {
				w.key = db.benchKey(w.key, w.rng.Int63n(space))
				t0 := env.Now()
				var err error
				w.dst, _, err = db.Get(pr, w.key, w.dst)
				if err != nil {
					panic(err)
				}
				res.ReadLat.Add(env.Now() - t0)
				res.Ops++
			}
		})
	}
	p.Wait(done)
	stop = true
	p.Wait(wDone)
	res.Elapsed = env.Now() - start
	res.UserMBps = stats.Throughput(res.Ops*db.entrySize(), res.Elapsed)
	res.Lat.Merge(&res.ReadLat)
	res.Stalls = db.WriteStalls
	return res
}
