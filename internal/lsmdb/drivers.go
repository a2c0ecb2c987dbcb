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
	// Err is the first Put or Get error of the run; the worker that met it
	// stopped there.
	Err error
}

// fail records err unless the run already has an error.
func (res *BenchResult) fail(err error) {
	if res.Err == nil {
		res.Err = err
	}
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

type worker struct {
	key []byte
	val []byte
	dst []byte
	rng *rand.Rand
}

func (db *DB) newWorker(id int64) *worker {
	return &worker{rng: rand.New(rand.NewSource(db.cfg.Seed + 77*id))}
}

// workers starts n worker processes named proc0 … and returns them for
// join; worker i draws from the random stream of id+i.
func (db *DB) workers(n int, proc string, id int64, body func(p *sim.Proc, w *worker)) []*sim.Proc {
	procs := make([]*sim.Proc, n)
	for i := range procs {
		w := db.newWorker(id + int64(i))
		procs[i] = db.env.Go(fmt.Sprintf("%s%d", proc, i), func(p *sim.Proc) { body(p, w) })
	}
	return procs
}

// join suspends p until every process of procs has returned.
func join(p *sim.Proc, procs []*sim.Proc) {
	for _, w := range procs {
		p.Wait(w.Done())
	}
}

// timedPut writes key index idx at generation gen and adds the Put's
// latency to lat.
func (db *DB) timedPut(p *sim.Proc, w *worker, idx, gen int64, lat *stats.Hist) error {
	w.key = db.benchKey(w.key, idx)
	w.val = db.benchVal(w.val, idx, gen)
	t0 := db.env.Now()
	if err := db.Put(p, w.key, w.val); err != nil {
		return err
	}
	lat.Add(db.env.Now() - t0)
	return nil
}

// readers starts `threads` workers that look up keys drawn uniformly from
// the loaded keyspace until virtual time until, adding each Get's latency
// to lat and counting it in res.Ops.
func (db *DB) readers(threads int, id int64, until time.Duration, res *BenchResult, lat *stats.Hist) []*sim.Proc {
	space := max(db.loaded, 1)
	return db.workers(threads, "db_bench.reader", id, func(p *sim.Proc, w *worker) {
		for db.env.Now() < until {
			w.key = db.benchKey(w.key, w.rng.Int63n(space))
			t0 := db.env.Now()
			var err error
			w.dst, _, err = db.Get(p, w.key, w.dst)
			if err != nil {
				res.fail(err)
				return
			}
			lat.Add(db.env.Now() - t0)
			res.Ops++
		}
	})
}

// finish stamps the run's elapsed time and throughput.
func (res *BenchResult) finish(db *DB, start time.Duration) *BenchResult {
	res.Elapsed = db.env.Now() - start
	res.UserMBps = stats.Throughput(res.Ops*db.entrySize(), res.Elapsed)
	return res
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
	res := &BenchResult{Name: "fillseq"}
	start := db.env.Now()
	remaining := entries
	next := db.loaded
	if random {
		res.Name = "fillrandom"
		db.noteLoaded(entries - 1)
	}
	join(p, db.workers(max(threads, 1), "db_bench.filler", 0, func(pw *sim.Proc, w *worker) {
		for remaining > 0 {
			remaining--
			var idx int64
			if random {
				idx = w.rng.Int63n(entries)
			} else {
				idx = next
				next++
			}
			if err := db.timedPut(pw, w, idx, 0, &res.Lat); err != nil {
				res.fail(err)
				return
			}
			res.Ops++
			if !random {
				db.noteLoaded(idx)
			}
		}
	}))
	res.Stalls = db.WriteStalls
	return res.finish(db, start)
}

// OverwriteRandomN overwrites a fixed count of random existing keys
// (db_bench overwrite with a volume target instead of a clock) — the
// steady state whose write amplification wa-e2e measures, over an exact
// number of drive-writes so results are comparable across stacks. round distinguishes successive
// passes so each draws a fresh key sequence.
func OverwriteRandomN(p *sim.Proc, db *DB, threads int, count, round int64) *BenchResult {
	res := &BenchResult{Name: "overwrite"}
	start := db.env.Now()
	remaining := count
	space := max(db.loaded, 1)
	join(p, db.workers(max(threads, 1), "db_bench.overwriter", 1000*round, func(pw *sim.Proc, w *worker) {
		for remaining > 0 {
			remaining--
			if err := db.timedPut(pw, w, w.rng.Int63n(space), round, &res.Lat); err != nil {
				res.fail(err)
				return
			}
			res.Ops++
		}
	}))
	res.Stalls = db.WriteStalls
	return res.finish(db, start)
}

// ReadRandom runs point lookups with `threads` parallel readers
// (db_bench readrandom) over the loaded keyspace.
func ReadRandom(p *sim.Proc, db *DB, threads int, d time.Duration) *BenchResult {
	res := &BenchResult{Name: "readrandom"}
	start := db.env.Now()
	join(p, db.readers(threads, 2000, start+d, res, &res.Lat))
	return res.finish(db, start)
}

// ReadWhileWriting runs `threads` readers against one full-speed random
// overwriter (db_bench readwhilewriting). Reported throughput covers
// reads, matching db_bench; writer volume is in the DB counters.
func ReadWhileWriting(p *sim.Proc, db *DB, threads int, d time.Duration) *BenchResult {
	res := &BenchResult{Name: "readwhilewriting"}
	start := db.env.Now()
	stop := false
	space := max(db.loaded, 1)
	w := db.newWorker(3000)
	writer := db.env.Go("db_bench.writer", func(pw *sim.Proc) {
		for gen := int64(1 << 20); !stop; gen++ {
			if err := db.timedPut(pw, w, w.rng.Int63n(space), gen, &res.WriteLat); err != nil {
				res.fail(err)
				return
			}
		}
	})
	join(p, db.readers(threads, 4000, start+d, res, &res.ReadLat))
	stop = true
	p.Wait(writer.Done())
	res.Lat.Merge(&res.ReadLat)
	res.Stalls = db.WriteStalls
	return res.finish(db, start)
}
