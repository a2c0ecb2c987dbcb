package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/stats"
)

// nominalSeconds is the --seconds value at which a workload measures its
// nominal operation counts (the ones in README.md). Other values scale the
// measured slices linearly; set-up and warm-up never scale.
const nominalSeconds = 15

// workload is one benchmark workload. Every phase is sized by operation
// count or virtual duration, never by wall time, so for a given seed every
// virtual-clock metric and every counter repeats exactly.
type workload struct {
	name, why string
	build     func(p *sim.Proc, st *stack, seed int64) error
	// warmSlices discarded slices of the workload's own traffic end set-up;
	// slices measured ones follow, with a forced GC between them.
	warmSlices, slices int
	// slice runs one slice; size is in the workload's own unit (user ops
	// for fio, virtual nanoseconds for the KV loop).
	slice    func(p *sim.Proc, st *stack, seed int64, idx int, size int64) (sliceOut, error)
	sliceLen int64
}

// sliceOut is what one slice of traffic did, on the virtual clock.
type sliceOut struct {
	ops, errors           int64
	readBytes, writeBytes int64
	readLat, writeLat     stats.Hist
	elapsed               time.Duration
}

func (a *sliceOut) merge(b *sliceOut) {
	a.ops += b.ops
	a.errors += b.errors
	a.readBytes += b.readBytes
	a.writeBytes += b.writeBytes
	a.readLat.Merge(&b.readLat)
	a.writeLat.Merge(&b.writeLat)
	a.elapsed += b.elapsed
}

// sliceSeed decorrelates slices of one run and runs of different seeds.
func sliceSeed(seed int64, idx int) int64 { return seed*1_000_003 + int64(idx)*7919 + 1 }

// fioSlice runs ops requests of the given job shape against the stack's top
// device, one fio worker sustaining the queue depth.
func fioSlice(job fio.Job) func(*sim.Proc, *stack, int64, int, int64) (sliceOut, error) {
	return func(p *sim.Proc, st *stack, seed int64, idx int, ops int64) (sliceOut, error) {
		j := job
		j.Size, j.MaxOps, j.Seed = st.spanBytes, ops, sliceSeed(seed, idx)
		r, err := fio.Run(p, st.top, j)
		if err != nil {
			return sliceOut{}, err
		}
		return sliceOut{
			ops: r.Reads + r.Writes + r.Errors, errors: r.Errors,
			readBytes: r.ReadBytes, writeBytes: r.WriteBytes,
			readLat: r.ReadLat, writeLat: r.WriteLat, elapsed: r.Elapsed,
		}, nil
	}
}

const lsmReaders = 4

// lsmSlice is db_bench readwhilewriting for a fixed virtual duration: four
// readers issue random point lookups until the deadline while one writer
// overwrites random keys at full speed. It is the benchmark's own loop (not
// lsmdb.ReadWhileWriting) so that keys derive from the run's seed and, on a
// traced pass, every KV operation opens a root span.
func lsmSlice(p *sim.Proc, st *stack, seed int64, idx int, virtualNs int64) (sliceOut, error) {
	env, db, tr := st.env, st.db, st.tracer
	var out sliceOut
	var firstErr error
	start := env.Now()
	deadline := start + time.Duration(virtualNs)
	stop := false
	base := sliceSeed(seed, idx)

	wDone := env.NewEvent()
	env.Go("bench.kv.writer", func(pw *sim.Proc) {
		defer wDone.Signal()
		rng := rand.New(rand.NewSource(base))
		var key, val []byte
		for gen := int64(1 << 20); !stop; gen++ {
			i := rng.Int63n(st.entries)
			key, val = lsmKey(key, i), lsmVal(val, i, gen)
			t0 := env.Now()
			span := -1
			if tr != nil {
				span = tr.Begin("lsmdb.put", t0)
			}
			err := db.Put(pw, key, val)
			if tr != nil {
				tr.End(span, env.Now(), 0)
			}
			out.ops++
			if err != nil {
				out.errors++
				firstErr = err
				return
			}
			out.writeLat.Add(env.Now() - t0)
			out.writeBytes += int64(len(key) + len(val))
		}
	})
	rDone := env.NewEvent()
	running := lsmReaders
	for r := 0; r < lsmReaders; r++ {
		rng := rand.New(rand.NewSource(base + int64(r+1)*104729))
		env.Go(fmt.Sprintf("bench.kv.reader%d", r), func(pr *sim.Proc) {
			defer func() {
				if running--; running == 0 {
					rDone.Signal()
				}
			}()
			var key, dst []byte
			for env.Now() < deadline {
				key = lsmKey(key, rng.Int63n(st.entries))
				t0 := env.Now()
				span := -1
				if tr != nil {
					span = tr.Begin("lsmdb.get", t0)
				}
				var err error
				dst, _, err = db.Get(pr, key, dst)
				if tr != nil {
					tr.End(span, env.Now(), 0)
				}
				out.ops++
				if err != nil {
					out.errors++
					firstErr = err
					return
				}
				out.readLat.Add(env.Now() - t0)
				out.readBytes += int64(len(dst))
			}
		})
	}
	p.Wait(rDone)
	stop = true
	p.Wait(wDone)
	out.elapsed = env.Now() - start
	return out, firstErr
}

var workloads = []*workload{
	{
		name:  "randread-qd32",
		why:   "4 KiB random reads: sim, ocssd and pblk's read path do all the work, write path/GC/volume/lsmdb none; bypass workload for write-side changes, cheapest per-IO path",
		build: buildRandRead, warmSlices: 4, slices: 16, sliceLen: 900_000,
		slice: fioSlice(fio.Job{Name: "randread", Pattern: fio.RandRead, BS: 4096, QD: 32}),
	},
	{
		name:  "steady-mixed-qd32",
		why:   "4 KiB 95/5 random read/write at GC steady state: the read path beside ring buffer, rate limiter, lanes, GC and program/erase suspension; a read-path gain that costs writes shows here",
		build: buildSteadyMixed, warmSlices: 2, slices: 10, sliceLen: 1_600_000,
		slice: fioSlice(fio.Job{Name: "steady-mixed", Pattern: fio.RandRW, RWMixRead: 95, BS: 4096, QD: 32}),
	},
	{
		name:  "volume-raid10-128k",
		why:   "128 KiB 50/50 random read/write over a stripe of mirrors: volume split/fan-out and four FTLs in one sim.Env; per-sector costs show, per-request costs are amortised over 32 sectors",
		build: buildRaid10, warmSlices: 2, slices: 10, sliceLen: 44_000,
		slice: fioSlice(fio.Job{Name: "raid10", Pattern: fio.RandRW, RWMixRead: 50, BS: 128 << 10, QD: 16}),
	},
	{
		name:  "lsm-readwhilewriting",
		why:   "db_bench readwhilewriting on lsmdb over flash-native pblk: memtable, bloom, block cache, WAL group commit and compaction do the host work; only workload carrying real payload bytes to nand",
		build: buildLSM, warmSlices: 2, slices: 20, sliceLen: int64(8 * time.Second),
		slice: lsmSlice,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
