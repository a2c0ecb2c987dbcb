package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

func init() {
	register("wa", "Steady-state overwrite: write amplification vs stream separation, throughput vs GC pipeline depth", runWA)
}

// waGeometry is a deliberately small device (8 PUs) so each configuration
// reaches GC steady state — the device fully written and every new write
// paid for by reclaim — within seconds of virtual time.
func waGeometry(blocksPerPlane int) ppa.Geometry {
	return ppa.Geometry{
		Channels: 4, PUsPerChannel: 2, PlanesPerPU: 4,
		BlocksPerPlane: blocksPerPlane, PagesPerBlock: 256,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	}
}

// waConfig is one measured point of the steady-state overwrite sweep.
type waConfig struct {
	name   string
	depth  int
	single bool
	op     float64 // over-provisioning fraction
	hotMod int64   // hot set = chunk indices ≡ 0 mod hotMod; 0 = uniform
}

// waRow is the measured result of one configuration.
type waRow struct {
	name            string
	wMBps           float64
	wa              float64
	moved, recycled int64
	peak            int64
	p99, max        time.Duration // write latency over the measure window
}

// runWA measures the reclaim half of the FTL in steady state, two ways.
//
// Stream separation: the LBA space is prefilled, then traffic hits a
// strided hot set (every 8th chunk, 95% of writes) with the rest spread
// over the cold chunks — so every block group holds hot and cold sectors
// side by side unless GC separates them. The dual-stream collector should
// show lower write amplification ((UserWrites+GCMovedSectors+
// PaddedSectors)/UserWrites) than the single-stream baseline, where GC
// rewrites cohabit blocks with user data and cold sectors are re-moved on
// every collection of their mixed host block.
//
// Pipeline depth: a uniform random overwrite under tighter
// over-provisioning drives recurring admission freezes, where reclaim
// latency gates user progress. WA stays flat across depths and throughput
// within a few percent up to depth 4; each extra concurrent victim shares
// the same lanes and stretches the stall to the next erase, so the write
// tail grows with depth. The depth-2 default is kept for read tails under
// mixed traffic, which this overwrite does not measure (DESIGN.md §"GC
// pipeline depth: why 2").
func runWA(o Options) *Report {
	sepSweep := []waConfig{
		{"single-stream (baseline)", 1, true, 0.5, 8},
		{"dual-stream depth=1", 1, false, 0.5, 8},
		{"dual-stream depth=2 (default)", 2, false, 0.5, 8},
	}
	depthSweep := []waConfig{
		{"depth=1 (sequential reclaim)", 1, false, 0.4, 0},
		{"depth=2 (default)", 2, false, 0.4, 0},
		{"depth=4", 4, false, 0.4, 0},
		{"depth=8", 8, false, 0.4, 0},
	}
	if o.Quick {
		sepSweep = []waConfig{sepSweep[0], sepSweep[2]}
		depthSweep = []waConfig{depthSweep[0], depthSweep[2]}
	}
	// Steady state needs several drive-writes of overwrite volume, so the
	// device is kept small: 8 blocks per plane over 8 PUs is ~1 GB raw.
	// Overwrite volume is measured in device-capacity multiples: a warm-up
	// reaches GC steady state, then the reported delta covers a fixed
	// volume so WA is comparable across configurations.
	const blocks = 8
	// The warm-up cannot shrink in quick mode: stream separation only pays
	// off once GC has fully sorted the prefill generation, about three
	// drive-writes in; only the measured delta is shortened.
	warmX, measX := 3.0, 1.0
	if o.Quick {
		measX = 0.5
	}

	run := func(c waConfig) waRow {
		env := sim.NewEnv(o.Seed)
		dev, err := ocssd.New(env, wearFreeConfig(waGeometry(blocks), o.Seed))
		check(err)
		ln := lightnvm.Register(fmt.Sprintf("wa-%s-op%.2f-hm%d", c.name, c.op, c.hotMod), dev)
		r := waRow{name: c.name}
		env.Go("wa", func(p *sim.Proc) {
			k, err := pblk.New(p, ln, "pblk-wa", pblk.Config{
				OverProvision:   c.op,
				GCPipelineDepth: c.depth,
				SingleStream:    c.single,
			})
			check(err)
			defer k.Stop(p)
			const chunk = int64(64 << 10)
			nChunks := k.Capacity() / chunk
			// Prefill the whole LBA space so steady-state overwrites pay
			// full reclaim cost.
			for ci := int64(0); ci < nChunks; ci++ {
				check(k.Write(p, ci*chunk, nil, chunk))
			}
			check(k.Flush(p))
			rng := newRand(o.Seed + 7)
			overwriteWindow(p, env, k, int64(warmX*float64(nChunks)), nChunks, chunk, c.hotMod, rng, nil, true)
			base := k.Stats
			var lats []time.Duration
			start := env.Now()
			overwriteWindow(p, env, k, int64(measX*float64(nChunks)), nChunks, chunk, c.hotMod, rng, &lats, true)
			elapsed := env.Now() - start
			user := k.Stats.UserWrites - base.UserWrites
			moved := k.Stats.GCMovedSectors - base.GCMovedSectors
			padded := k.Stats.PaddedSectors - base.PaddedSectors
			r.wMBps = float64(user*4096) / 1e6 / elapsed.Seconds()
			if user > 0 {
				r.wa = float64(user+moved+padded) / float64(user)
			}
			r.moved = moved
			r.recycled = k.Stats.GCBlocksRecycled - base.GCBlocksRecycled
			r.peak = k.Stats.GCPeakInFlight
			if len(lats) > 0 {
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				r.p99 = lats[len(lats)*99/100]
				r.max = lats[len(lats)-1]
			}
		})
		env.Run()
		return r
	}

	rep := &Report{}
	emit := func(title string, sweep []waConfig) *section {
		s := rep.section(title)
		t := s.table("config", "W MB/s", "WA", "gc moved", "recycled", "gc peak in-flight", "p99 write ms", "max write ms")
		for _, c := range sweep {
			r := run(c)
			t.add(label(r.name), mb(r.wMBps), num("%.2f", r.wa),
				num("%.0f", r.moved), num("%.0f", r.recycled), num("%.0f", r.peak),
				ms(r.p99), ms(r.max))
		}
		return s
	}
	emit("Stream separation: 95% of writes to a strided hot eighth, QD32, OP 0.5", sepSweep).note("",
		"expected shape: dual-stream WA below the single-stream baseline — GC rewrites",
		"stop cohabiting blocks with hot user data, so cold sectors are moved once",
		"instead of on every collection of their mixed host block.")
	emit("GC pipeline depth: uniform random overwrite, QD32, OP 0.4", depthSweep).note("",
		"expected shape: WA stays flat across depths and throughput within a few",
		"percent of depth 1 up to depth 4, while each extra concurrent victim stretches",
		"the write tail: concurrent drains share the same lanes, so the stall to the",
		"next erase grows with depth. The depth-2 default is kept for read tails under",
		"mixed traffic, which this table does not show.")
	return rep
}

// overwriteWindow drives QD32 random chunk overwrites until totalChunks
// chunks have been written. With hotMod > 0, 95% of writes hit the hot
// set (chunk indices ≡ 0 mod hotMod) and the rest spread over all
// chunks, so hot and cold sectors interleave at block granularity;
// hotMod 0 is a uniform random overwrite.
func overwriteWindow(p *sim.Proc, env *sim.Env, k *pblk.Pblk, totalChunks, nChunks, chunk, hotMod int64, rng *rand.Rand, lats *[]time.Duration, flush bool) {
	submitted := int64(0)
	pick := func() int64 {
		if hotMod > 0 && rng.Float64() < 0.95 {
			return rng.Int63n((nChunks+hotMod-1)/hotMod) * hotMod % nChunks
		}
		return rng.Int63n(nChunks)
	}
	drive(p, k.OpenQueue(env, 32), func() *blockdev.Request {
		if submitted == totalChunks {
			return nil
		}
		submitted++
		return &blockdev.Request{Op: blockdev.ReqWrite, Off: pick() * chunk, Length: chunk}
	}, func(r *blockdev.Request) {
		check(r.Err)
		if lats != nil {
			*lats = append(*lats, r.Latency())
		}
	})
	if !flush {
		return
	}
	check(k.Flush(p))
}
