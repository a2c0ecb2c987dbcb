package harness

import (
	"errors"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fio"
	"repro/internal/lightnvm"
	"repro/internal/pblk"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register("fig8", "Figure 8: predictable latency via PU-isolated streams vs NVMe SSD", runFig8)
}

// placement is one way to put Figure 8's two streams on a device. cost is
// the time one 64K write keeps the device busy (runMix's pacing).
type placement struct {
	name  string
	cost  time.Duration
	setup streams
}

// streams builds a device on p's Env and returns the reader's and the
// writer's device, the reader's span [0, prep), the writer's first offset,
// and what stops the targets it mounted.
type streams func(p *sim.Proc) (rd, wr blockdev.Device, prep, wOff int64, stop func(*sim.Proc) error)

// runFig8 reproduces the application-specific FTL demonstration: two
// streams — 4K random reads at QD1 and 64K writes at QD1 — at read/write
// mixes 100/0, 80/20, 66/33, 50/50, for each placement of the streams.
// PU i of the open-channel SSD sits on channel i/8. Raw targets on PUs
// [0, 4) and [64, 68) share nothing; [0, 4) and [4, 8) share channel 0.
// pblk tenants split at PU 64 share nothing; split at 60 they share
// channel 7. One shared pblk stripes both streams over every PU, and the
// NVMe SSD mixes them in its own FTL.
func runFig8(o Options) *Report {
	writePcts := []int{0, 20, 33, 50} // the table's R/W mixes
	raw := func(wBegin int) streams {
		return func(p *sim.Proc) (blockdev.Device, blockdev.Device, int64, int64, func(*sim.Proc) error) {
			_, ln := ocssdIn(p.Env(), westlake(o))
			rd, wr := newRaw(ln, "raw-read", 0, 4), newRaw(ln, "raw-write", wBegin, wBegin+4)
			return rd, wr, rd.BlockBytes(4), 0, func(*sim.Proc) error {
				rd.Stop()
				wr.Stop()
				return nil
			}
		}
	}
	// tenants mounts the reader's pblk on PUs [0, split) and the writer's on
	// the rest. Split 0 reserves the whole device for one pblk that serves
	// both streams, the writer above the reader's span.
	tenants := func(split int) streams {
		return func(p *sim.Proc) (blockdev.Device, blockdev.Device, int64, int64, func(*sim.Proc) error) {
			_, ln := ocssdIn(p.Env(), westlake(o))
			mount := func(name string, r lightnvm.PURange) *pblk.Pblk {
				v, err := ln.Reserve(name, r)
				check(err)
				k, err := pblk.NewView(p, v, pblk.Config{})
				check(err)
				return k
			}
			rd := mount("pblk-read", lightnvm.PURange{End: split})
			prep := alignDown(min(rd.Capacity()/4, 48<<20), 256<<10)
			if split == 0 {
				return rd, rd, prep, prep, rd.Stop
			}
			wr := mount("pblk-write", lightnvm.PURange{Begin: split, End: ln.Geometry().TotalPUs()})
			return rd, wr, prep, 0, func(p *sim.Proc) error { return errors.Join(rd.Stop(p), wr.Stop(p)) }
		}
	}
	nvme := func(p *sim.Proc) (blockdev.Device, blockdev.Device, int64, int64, func(*sim.Proc) error) {
		d, err := newBaseline(p, p.Env(), o)
		check(err)
		prep := alignDown(d.Capacity()/2, 256<<10)
		return d, d, prep, prep, d.Stop
	}
	oc := 1330 * time.Microsecond // about one 64K unit's transfer and program
	placements := []placement{
		{"raw, disjoint channels", oc, raw(64)},
		{"raw, shared channel", oc, raw(4)},
		{"pblk, split at 64", oc, tenants(64)},
		{"pblk, split at 60", oc, tenants(60)},
		{"one shared pblk", oc, tenants(0)},
		{"NVMe SSD", 300 * time.Microsecond, nvme},
	}

	rep := &Report{}
	s := rep.section("Figure 8: 4K random-read latency p99 / max (us) vs R/W mix, by stream placement")
	t := s.table("placement", "100/0", "80/20", "66/33", "50/50")
	for _, pl := range placements {
		row := []cell{label(pl.name)}
		env := sim.NewEnv(o.Seed)
		env.Go("fig8", func(p *sim.Proc) {
			rd, wr, prep, wOff, stop := pl.setup(p)
			check(fio.Prepare(p, rd, 0, prep))
			p.Sleep(100 * time.Millisecond) // let write buffers drain
			for _, w := range writePcts {
				lat := runMix(p, rd, wr, prep, wOff, w, pl.cost, o.Duration, o.Seed)
				row = append(row, num("%.0f / %.0f", usF(lat.Percentile(99)), usF(lat.Max())))
			}
			check(stop(p))
		})
		env.Run()
		t.add(row...)
	}
	s.note("", "paper shape: read latency stays flat on channels of its own; on a shared channel it is",
		"bounded by one transfer per writer unit queued ahead (one for a raw QD1 writer). One shared",
		"pblk and the NVMe SSD cannot separate the streams: their tails inflate with the write share.")
	return rep
}

// runMix runs the figure's two streams for d and returns the read
// latencies: 4K random reads at QD1 over the prepared [0, prep) of rdev,
// and 64K sequential writes at QD1 over wdev from wOff on. Below 50 % the
// writer is paced to one write per cost × 100 / 2·writePct, cost being
// the time one write keeps the device busy — a duty cycle that is all
// writes at 50 %, from where on the writer runs unpaced.
func runMix(p *sim.Proc, rdev, wdev blockdev.Device, prep, wOff int64, writePct int, cost, d time.Duration, seed int64) stats.Hist {
	var w *sim.Proc
	if writePct > 0 {
		writer := fio.Job{Name: "fig8.writer", Pattern: fio.SeqWrite, BS: 64 << 10, Offset: wOff, Runtime: d}
		if writePct < 50 {
			period := cost * 100 / time.Duration(2*writePct)
			writer.WriteRateMBps = float64(writer.BS) / period.Seconds() / 1e6
		}
		w = p.Env().Go("fig8.writer", func(pw *sim.Proc) {
			mustRun(pw, wdev, writer)
		})
	}
	r := mustRun(p, rdev, fio.Job{Name: "fig8.reader", Pattern: fio.RandRead, BS: 4096, Size: prep, Runtime: d, Seed: seed})
	if w != nil {
		p.Wait(w.Done())
	}
	return r.ReadLat
}
