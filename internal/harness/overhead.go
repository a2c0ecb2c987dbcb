package harness

import (
	"time"

	"repro/internal/blockdev"
	"repro/internal/fio"
	"repro/internal/nullblk"
	"repro/internal/pblk"
	"repro/internal/sim"
)

func init() {
	register("overhead", "§5.1: pblk host overhead over a null block device", runOverhead)
}

// runOverhead mirrors the paper's methodology: compare 4K request latency
// on a null block device with and without pblk's host-side datapath cost.
// The paper measures 1.97→2.32 µs reads (+18%) and 2.0→2.9 µs writes
// (+45%).
func runOverhead(o Options) *Report {
	cfg := pblk.Default(pblk.Config{})
	measure := func(dev blockdev.Device) (r, wr time.Duration) {
		env := sim.NewEnv(o.Seed)
		var rr, wo *fio.Result
		env.Go("main", func(p *sim.Proc) {
			rr = mustRun(p, dev, fio.Job{Name: "r", Pattern: fio.RandRead, BS: 4096, MaxOps: 20000})
			wo = mustRun(p, dev, fio.Job{Name: "w", Pattern: fio.RandWrite, BS: 4096, MaxOps: 20000})
		})
		env.Run()
		return rr.ReadLat.Mean(), wo.WriteLat.Mean()
	}

	nullCfg := nullblk.DefaultConfig()
	r0, w0 := measure(nullblk.New(nullCfg))
	nullCfg.ReadLatency += cfg.HostReadOverhead
	nullCfg.WriteLatency += cfg.HostWriteOverhead
	r1, w1 := measure(nullblk.New(nullCfg))

	rep := &Report{}
	t := rep.section("pblk CPU/latency overhead (paper: reads 1.97->2.32us +18%, writes 2.0->2.9us +45%)").
		table("path", "read us", "write us")
	t.add(label("null block device"), num("%.2f", usF(r0)), num("%.2f", usF(w0)))
	t.add(label("null + pblk datapath"), num("%.2f", usF(r1)), num("%.2f", usF(w1)))
	t.add(label("overhead"), num("%.2f (+%.0f%%)", usF(r1-r0), pct(r1, r0)),
		num("%.2f (+%.0f%%)", usF(w1-w0), pct(w1, w0)))
	return rep
}

func usF(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func pct(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return (float64(a)/float64(b) - 1) * 100
}
