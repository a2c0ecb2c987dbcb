package ocssd

import (
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ppa"
)

// timelineGolden is the FNV-1a digest of TestCommandTimelineGolden's
// completion stream. It was first recorded at the commit before the
// event-engine and command-path rewrite (a530e15); when the buffered write
// mode was deleted, the script's buffered writes became ordinary ones and the
// digest was re-recorded at a0499a9, the last commit with that mode, from
// this same script, so the read, write, erase and suspend timeline is the one
// pinned before. A host-only change must reproduce it; a change that means
// to move the device timing model re-records it and says so.
const timelineGolden uint64 = 0x463563607435532d

// TestCommandTimelineGolden pins the virtual timeline of the command state
// machine: about 2 k mixed read / write / erase vectors on
// an 8-PU device with suspension on, 24 in flight so PUs and channels are
// contended. Every completion contributes (index, Done, Status) in completion
// order, so a reordered same-nanosecond tie, a moved event or a changed
// duration all change the digest.
func TestCommandTimelineGolden(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Geometry = ppa.Geometry{
		Channels: 4, PUsPerChannel: 2, PlanesPerPU: 4,
		BlocksPerPlane: 8, PagesPerBlock: 256,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	}
	cfg.Timing.SuspendSlice = 100 * time.Microsecond
	cfg.Timing.SuspendPenalty = 50 * time.Microsecond
	env, dev := newTestDevice(t, cfg)
	g := dev.Geometry()
	rng := rand.New(rand.NewSource(16))

	const total, window = 2048, 24
	wp := make([][]int, g.TotalPUs()) // next page to program, per PU and block
	for i := range wp {
		wp[i] = make([]int, g.BlocksPerPlane)
	}
	unit := func(v *Vector, gpu, blk, page int) {
		for pl := 0; pl < g.PlanesPerPU; pl++ {
			for s := 0; s < g.SectorsPerPage; s++ {
				v.Addrs = append(v.Addrs, ppa.Addr{Ch: gpu / g.PUsPerChannel, PU: gpu % g.PUsPerChannel,
					Plane: pl, Block: blk, Page: page, Sector: s})
			}
		}
	}
	next := func() *Vector {
		gpu, blk := rng.Intn(g.TotalPUs()), rng.Intn(g.BlocksPerPlane)
		switch r := rng.Intn(100); {
		case r < 25: // write one unit, or one unit on each of up to four PUs
			v := &Vector{Op: OpWrite}
			for n := 1 + 3*rng.Intn(2); n > 0; n-- {
				if wp[gpu][blk] < g.PagesPerBlock {
					unit(v, gpu, blk, wp[gpu][blk])
					wp[gpu][blk]++
				}
				gpu = (gpu + 1) % g.TotalPUs()
			}
			if len(v.Addrs) > 0 {
				return v
			}
			fallthrough
		case r < 29:
			v := &Vector{Op: OpErase}
			for pl := 0; pl < g.PlanesPerPU; pl++ {
				v.Addrs = append(v.Addrs, ppa.Addr{Ch: gpu / g.PUsPerChannel, PU: gpu % g.PUsPerChannel, Plane: pl, Block: blk})
			}
			wp[gpu][blk] = 0
			return v
		}
		// Reads: mostly one sector, sometimes a scattered vector; mostly of
		// programmed pages, sometimes of pages never written.
		v := &Vector{Op: OpRead}
		n := 1
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(MaxVectorLen)
		}
		for ; n > 0; n-- {
			page := rng.Intn(g.PagesPerBlock)
			if w := wp[gpu][blk]; w > 0 && rng.Intn(16) != 0 {
				page = rng.Intn(w)
			}
			v.Addrs = append(v.Addrs, ppa.Addr{Ch: gpu / g.PUsPerChannel, PU: gpu % g.PUsPerChannel,
				Plane: rng.Intn(g.PlanesPerPU), Block: blk, Page: page, Sector: rng.Intn(g.SectorsPerPage)})
			if rng.Intn(3) == 0 {
				gpu, blk = rng.Intn(g.TotalPUs()), rng.Intn(g.BlocksPerPlane)
			}
		}
		return v
	}

	h := fnv.New64a()
	mix := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	issued, completed := 0, 0
	var submit func()
	submit = func() {
		if issued == total {
			return
		}
		idx := issued
		issued++
		v := next()
		dev.Submit(v, func(c *Completion) {
			completed++
			mix(uint64(idx), uint64(c.Done), c.Status)
			dev.Recycle(c)
			// Refill at once or after a think time, so submissions land both
			// on and off the instants the device's own events fire at.
			if rng.Intn(4) == 0 {
				env.Schedule(time.Duration(rng.Intn(40))*time.Microsecond, submit)
			} else {
				submit()
			}
		})
	}
	env.Schedule(0, func() {
		for i := 0; i < window; i++ {
			submit()
		}
	})
	env.Run()
	if completed != total {
		t.Fatalf("%d of %d commands completed", completed, total)
	}
	mix(uint64(env.Now()), uint64(dev.Stats.Suspensions), uint64(dev.Stats.FlashReads), uint64(dev.Stats.CacheHits))
	if dev.Stats.Suspensions == 0 || dev.Stats.CacheHits == 0 {
		t.Fatalf("script no longer covers suspension (%d) or the page buffer (%d hits)",
			dev.Stats.Suspensions, dev.Stats.CacheHits)
	}
	if got := h.Sum64(); got != timelineGolden {
		t.Fatalf("command timeline digest = %#x, want %#x (end %v, stats %+v)", got, timelineGolden, env.Now(), dev.Stats)
	}
}
