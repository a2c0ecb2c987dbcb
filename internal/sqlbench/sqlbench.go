// Package sqlbench reproduces the storage behaviour of Sysbench's OLTP and
// OLAP workloads on a MySQL/InnoDB-style engine (paper §5.4, Fig 7).
//
// OLTP transactions do point reads through a buffer pool, dirty a few
// pages, and commit by appending to a redo log with an fsync per commit
// group — the flush-heavy pattern that makes pblk pad flash pages ("for
// 10GB write, 44,000 flushes were sent, with roughly 2GB data padding
// applied"). OLAP queries are long, CPU-intensive scans with almost no
// flushes. Both are deliberately CPU-bound, as the paper observes.
package sqlbench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parametrizes the engine and workload.
type Config struct {
	// Threads is the number of concurrent client connections.
	Threads int
	// ReadsPerTxn / WritesPerTxn shape OLTP transactions (Sysbench's
	// default mix is read-mostly with a few updates).
	ReadsPerTxn, WritesPerTxn int
	// BufferPoolHit is the probability a page read is served from memory.
	BufferPoolHit float64
	// PageSize is the database page size (InnoDB: 16 KB).
	PageSize int
	// RedoPerTxn is the redo-log volume per transaction.
	RedoPerTxn int
	// CPUPerTxn models the CPU time of a transaction; the paper's OLTP and
	// OLAP runs are CPU-bound, so this dominates TPS.
	CPUPerTxn time.Duration
	// FlushEveryCommit issues a device flush on each commit group (InnoDB
	// innodb_flush_log_at_trx_commit=1).
	FlushEveryCommit bool
	// CommitGroup batches this many transactions per log flush.
	CommitGroup int
	// ScanBytesPerQuery is the OLAP scan volume per query.
	ScanBytesPerQuery int64
	// CPUPerQuery is the OLAP per-query CPU cost.
	CPUPerQuery time.Duration
	Seed        int64
}

// DefaultOLTP returns a Sysbench-OLTP-like configuration. Commits group
// across the eight connections (InnoDB group commit): one log flush covers
// a batch of transactions, as on a real MySQL under concurrency.
func DefaultOLTP() Config {
	return Config{
		Threads:          8,
		ReadsPerTxn:      10,
		WritesPerTxn:     4,
		BufferPoolHit:    0.80,
		PageSize:         16 << 10,
		RedoPerTxn:       4 << 10,
		CPUPerTxn:        500 * time.Microsecond,
		FlushEveryCommit: true,
		CommitGroup:      4,
		Seed:             1,
	}
}

// DefaultOLAP returns a Sysbench-OLAP-like configuration: read-mostly
// scans, few flushes.
func DefaultOLAP() Config {
	return Config{
		Threads:           8,
		BufferPoolHit:     0.50,
		PageSize:          16 << 10,
		ScanBytesPerQuery: 8 << 20,
		CPUPerQuery:       20 * time.Millisecond,
		RedoPerTxn:        4 << 10,
		CPUPerTxn:         300 * time.Microsecond,
		Seed:              1,
	}
}

// Result reports one run.
type Result struct {
	Name                          string
	Txns                          int64
	TPS                           float64
	Lat                           stats.Hist
	Elapsed                       time.Duration
	Flushes                       int64
	RedoBytes                     int64
	DataReadBytes, DataWriteBytes int64
	// Err is the first I/O error of the run; the client or page cleaner
	// that met it stopped there.
	Err error
}

// fail records err unless the run already has an error.
func (r *Result) fail(err error) {
	if r.Err == nil {
		r.Err = err
	}
}

func (r *Result) String() string {
	return fmt.Sprintf("%s: %.0f tps lat[%v] flushes=%d", r.Name, r.TPS, r.Lat.Summarize(), r.Flushes)
}

// engine is the shared storage layout: redo log region + table space.
type engine struct {
	cfg                       Config
	dev                       blockdev.Device
	env                       *sim.Env
	rng                       *rand.Rand
	logBase, logSize, logHead int64
	dataBase, dataSize        int64
	// group commit state
	sinceFlush int
	res        *Result
	// dirty page writeback by a background cleaner
	dirty       int64
	cleanerProc *sim.Proc
	stopping    bool
}

func newEngine(env *sim.Env, dev blockdev.Device, cfg Config, res *Result) *engine {
	e := &engine{
		cfg: cfg, dev: dev, env: env,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		res: res,
	}
	ss := int64(dev.SectorSize())
	ps := int64(cfg.PageSize)
	if ps == 0 {
		ps = ss
	}
	e.logSize = dev.Capacity() / 32 / ps * ps
	e.logBase = 0
	e.dataBase = e.logSize
	// The table space is 3/4 of what the log leaves.
	e.dataSize = (dev.Capacity() - e.logSize) * 3 / 4 / ps * ps
	e.cleanerProc = env.Go("sqlbench.cleaner", e.cleaner)
	return e
}

func (e *engine) alignSector(n int64) int64 {
	ss := int64(e.dev.SectorSize())
	return (n + ss - 1) / ss * ss
}

// appendRedo writes a commit record and flushes per the commit policy.
func (e *engine) appendRedo(p *sim.Proc, n int64) error {
	n = e.alignSector(n)
	off := e.logBase + e.logHead%e.logSize
	if off+n > e.logBase+e.logSize {
		e.logHead = 0
		off = e.logBase
	}
	if err := e.dev.Write(p, off, nil, n); err != nil {
		return err
	}
	e.logHead += n
	e.res.RedoBytes += n
	e.sinceFlush++
	if e.cfg.FlushEveryCommit && e.sinceFlush >= maxInt(1, e.cfg.CommitGroup) {
		e.sinceFlush = 0
		e.res.Flushes++
		return e.dev.Flush(p)
	}
	return nil
}

// readPage fetches one random table-space page unless the buffer pool has
// it.
func (e *engine) readPage(p *sim.Proc) error {
	if e.rng.Float64() < e.cfg.BufferPoolHit {
		return nil
	}
	ps := int64(e.cfg.PageSize)
	pages := e.dataSize / ps
	off := e.dataBase + e.rng.Int63n(pages)*ps
	e.res.DataReadBytes += ps
	return e.dev.Read(p, off, nil, ps)
}

// dirtyPage marks a page for background writeback.
func (e *engine) dirtyPage() { e.dirty++ }

// cleaner writes back dirty pages in batches, the InnoDB page-cleaner
// analogue: foreground commits only pay for redo, data pages trickle out.
func (e *engine) cleaner(p *sim.Proc) {
	ps := int64(e.cfg.PageSize)
	pages := e.dataSize / ps
	for !e.stopping {
		if e.dirty == 0 {
			p.Sleep(2 * time.Millisecond)
			continue
		}
		batch := e.dirty
		if batch > 64 {
			batch = 64
		}
		e.dirty -= batch
		for i := int64(0); i < batch; i++ {
			off := e.dataBase + e.rng.Int63n(pages)*ps
			if err := e.dev.Write(p, off, nil, ps); err != nil {
				e.res.fail(err)
				return
			}
			e.res.DataWriteBytes += ps
		}
	}
}

func (e *engine) stop(p *sim.Proc) {
	e.stopping = true
	p.Wait(e.cleanerProc.Done())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// run drives cfg.Threads client processes for duration d, each executing
// txn back to back with a random stream of its own until the time is up or
// a transaction fails, then stops the engine and completes the result.
func (e *engine) run(p *sim.Proc, d time.Duration, txn func(pr *sim.Proc, rng *rand.Rand) error) *Result {
	env, res := e.env, e.res
	start := env.Now()
	clients := make([]*sim.Proc, e.cfg.Threads)
	for th := range clients {
		rng := rand.New(rand.NewSource(e.cfg.Seed + int64(th)*31))
		clients[th] = env.Go(fmt.Sprintf("%s.%d", res.Name, th), func(pr *sim.Proc) {
			for env.Now() < start+d {
				t0 := env.Now()
				if err := txn(pr, rng); err != nil {
					res.fail(err)
					return
				}
				res.Lat.Add(env.Now() - t0)
				res.Txns++
			}
		})
	}
	for _, c := range clients {
		p.Wait(c.Done())
	}
	e.stop(p)
	res.Elapsed = env.Now() - start
	res.TPS = float64(res.Txns) / res.Elapsed.Seconds()
	return res
}

// RunOLTP executes the OLTP workload for duration d.
func RunOLTP(p *sim.Proc, env *sim.Env, dev blockdev.Device, cfg Config, d time.Duration) *Result {
	e := newEngine(env, dev, cfg, &Result{Name: "oltp"})
	return e.run(p, d, func(pr *sim.Proc, _ *rand.Rand) error {
		for i := 0; i < cfg.ReadsPerTxn; i++ {
			if err := e.readPage(pr); err != nil {
				return err
			}
		}
		for i := 0; i < cfg.WritesPerTxn; i++ {
			e.dirtyPage()
		}
		pr.Sleep(cfg.CPUPerTxn)
		return e.appendRedo(pr, int64(cfg.RedoPerTxn))
	})
}

// RunOLAP executes the OLAP workload for duration d: scan-heavy queries,
// rare small writes, almost no flushes.
func RunOLAP(p *sim.Proc, env *sim.Env, dev blockdev.Device, cfg Config, d time.Duration) *Result {
	res := &Result{Name: "olap"}
	e := newEngine(env, dev, cfg, res)
	const scanChunk = 256 << 10
	return e.run(p, d, func(pr *sim.Proc, rng *rand.Rand) error {
		// Scan a contiguous region of the table space.
		span := e.dataSize - cfg.ScanBytesPerQuery
		if span < 1 {
			span = 1
		}
		base := e.dataBase + rng.Int63n(span)/int64(dev.SectorSize())*int64(dev.SectorSize())
		for got := int64(0); got < cfg.ScanBytesPerQuery; got += scanChunk {
			if e.rng.Float64() < cfg.BufferPoolHit {
				continue
			}
			if err := dev.Read(pr, base+got, nil, scanChunk); err != nil {
				return err
			}
			res.DataReadBytes += scanChunk
		}
		pr.Sleep(cfg.CPUPerQuery)
		// Occasional metadata update with a flush every ~100
		// queries keeps flush counts two orders below OLTP.
		if rng.Intn(100) == 0 {
			if err := e.appendRedo(pr, int64(cfg.RedoPerTxn)); err != nil {
				return err
			}
			if !cfg.FlushEveryCommit {
				if err := dev.Flush(pr); err != nil {
					return err
				}
				res.Flushes++
			}
		}
		return nil
	})
}
