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

// TestQueueReadPathAllocations is the tier-1 form of the benchmark's
// allocs_per_io: 4 KiB random reads at QD32 through the queue engine, over
// pblk and over a two-member stripe. What a warmed-up run still allocates is
// its own set-up (queue, request pool, histograms), a few hundredths of an
// allocation per request; one make put back on the request path is a whole
// one.
func TestQueueReadPathAllocations(t *testing.T) {
	const size, ops = 8 << 20, 20000
	ftl := pblk.Config{OverProvision: 0.2}
	// perOp prepares dev, runs the job once to grow every pool and ring, and
	// returns the second run's heap allocations per request.
	perOp := func(p *sim.Proc, dev blockdev.Device) float64 {
		if err := Prepare(p, dev, 0, size); err != nil {
			panic(err)
		}
		var before, after runtime.MemStats
		for _, seed := range []int64{1, 2} {
			runtime.ReadMemStats(&before)
			res, err := Run(p, dev, Job{Name: "r", Pattern: RandRead, BS: 4096, QD: 32, Size: size, MaxOps: ops, Seed: seed})
			runtime.ReadMemStats(&after)
			if err != nil || res.Errors != 0 || res.Reads != ops {
				panic("read job did not complete cleanly")
			}
		}
		return float64(after.Mallocs-before.Mallocs) / ops
	}
	for _, c := range []struct {
		name  string
		bound float64 // measured: 28 and 58 allocations per 20000 requests; the stripe's is that + 10 %
		open  func(p *sim.Proc, env *sim.Env) blockdev.Device
	}{
		{"pblk", 0.01, func(p *sim.Proc, env *sim.Env) blockdev.Device {
			dev, err := ocssd.New(env, volume.DefaultDeviceConfig(24))
			if err != nil {
				panic(err)
			}
			k, err := pblk.New(p, lightnvm.Register("alloc-pblk", dev), "pblk0", ftl)
			if err != nil {
				panic(err)
			}
			return k
		}},
		{"stripe", 0.0032, func(p *sim.Proc, env *sim.Env) blockdev.Device {
			mgr, err := volume.NewManager(p, env, volume.Config{Devices: 2, OCSSD: volume.DefaultDeviceConfig(24), Pblk: ftl, NamePrefix: "alloc-stripe"})
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
			defer lightnvm.UnregisterAll()
			env := sim.NewEnv(1)
			var got float64
			env.Go("main", func(p *sim.Proc) { got = perOp(p, c.open(p, env)) })
			env.Run()
			t.Logf("%.4f allocations per request", got)
			if got > c.bound {
				t.Fatalf("%.4f allocations per request, want at most %.4f", got, c.bound)
			}
		})
	}
}
