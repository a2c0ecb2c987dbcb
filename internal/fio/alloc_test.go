package fio

import (
	"runtime"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/sim"
	"repro/internal/volume"
)

const allocSize, allocOps = 8 << 20, 20000

var allocFTL = pblk.Config{OverProvision: 0.2}

// allocsPerOp prepares dev, runs allocOps 4 KiB QD32 requests of the given
// pattern once to grow every pool and ring, and returns the second run's heap
// allocations per request.
func allocsPerOp(p *sim.Proc, dev blockdev.Device, pattern Pattern) float64 {
	if err := Prepare(p, dev, 0, allocSize); err != nil {
		panic(err)
	}
	var before, after runtime.MemStats
	for _, seed := range []int64{1, 2} {
		runtime.ReadMemStats(&before)
		res, err := Run(p, dev, Job{Name: "a", Pattern: pattern, BS: 4096, QD: 32, Size: allocSize, MaxOps: allocOps, Seed: seed})
		runtime.ReadMemStats(&after)
		done := res.Reads
		if pattern == RandWrite {
			done = res.Writes
		}
		if err != nil || res.Errors != 0 || done != allocOps {
			panic("job did not complete cleanly")
		}
	}
	return float64(after.Mallocs-before.Mallocs) / allocOps
}

func openAllocPblk(p *sim.Proc, env *sim.Env, oc ocssd.Config, ftl pblk.Config) *pblk.Pblk {
	dev, err := ocssd.New(env, oc)
	if err != nil {
		panic(err)
	}
	k, err := pblk.New(p, lightnvm.Register("alloc-pblk", dev), "pblk0", ftl)
	if err != nil {
		panic(err)
	}
	return k
}

// TestQueueReadPathAllocations is the tier-1 form of the benchmark's
// allocs_per_io: 4 KiB random reads at QD32 through the queue engine, over
// pblk and over a two-member stripe. What a warmed-up run still allocates is
// its own set-up (queue, request pool, histograms), a few hundredths of an
// allocation per request; one make put back on the request path is a whole
// one.
func TestQueueReadPathAllocations(t *testing.T) {
	for _, c := range []struct {
		name  string
		bound float64 // measured: 28 and 58 allocations per 20000 requests; the stripe's is that + 10 %
		open  func(p *sim.Proc, env *sim.Env) blockdev.Device
	}{
		{"pblk", 0.01, func(p *sim.Proc, env *sim.Env) blockdev.Device {
			return openAllocPblk(p, env, volume.DefaultDeviceConfig(24), allocFTL)
		}},
		{"stripe", 0.0032, func(p *sim.Proc, env *sim.Env) blockdev.Device {
			mgr, err := volume.NewManager(p, env, volume.Config{Devices: 2, OCSSD: volume.DefaultDeviceConfig(24), Pblk: allocFTL, NamePrefix: "alloc-stripe"})
			if err != nil {
				panic(err)
			}
			v, err := mgr.CreateVolume("s", volume.Stripe(64<<10, 0, 1), volume.Options{})
			if err != nil {
				panic(err)
			}
			return v
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			var got float64
			env.Go("main", func(p *sim.Proc) { got = allocsPerOp(p, c.open(p, env), RandRead) })
			env.Run()
			t.Logf("%.4f allocations per request", got)
			if got > c.bound {
				t.Fatalf("%.4f allocations per request, want at most %.4f", got, c.bound)
			}
		})
	}
}

// TestQueueWritePathAllocations is the write leg, on a one-PU device: it
// drains one unit at a time, the ring is full throughout, and the queue's
// admission pump parks on ring space once per unit programmed. That stall
// re-arms the ring's one event; a fresh event and waiter list per stall were
// 0.27 allocations per request. What is left is the GC worker each recycled
// group starts.
func TestQueueWritePathAllocations(t *testing.T) {
	oc := volume.DefaultDeviceConfig(20)
	oc.Geometry.Channels, oc.Geometry.PUsPerChannel, oc.Geometry.PagesPerBlock = 1, 1, 128
	env := sim.NewEnv(1)
	var got float64
	env.Go("main", func(p *sim.Proc) {
		got = allocsPerOp(p, openAllocPblk(p, env, oc, pblk.Config{OverProvision: 0.5}), RandWrite)
	})
	env.Run()
	t.Logf("%.4f allocations per request", got)
	const bound = 0.0093 // measured: 168 allocations per 20000 requests, + 10 %
	if got > bound {
		t.Fatalf("%.4f allocations per request, want at most %.4f", got, bound)
	}
}
