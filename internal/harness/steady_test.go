package harness

import (
	"testing"
	"time"

	"repro/internal/fio"
	"repro/internal/pblk"
	"repro/internal/sim"
)

// TestSteadyStateNoDeadlock regression-tests the full fill + second-pass
// overwrite at Westlake scale: GC, the rate limiter, and lane allocation
// must keep the datapath live at device capacity (this sequence deadlocked
// in three distinct ways during development).
func TestSteadyStateNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute steady-state run")
	}
	o := Defaults(Options{Duration: 50 * time.Millisecond})
	env, _, ln := newOCSSD(westlake(o))
	done := false
	var k *pblk.Pblk
	env.Go("aggregate", func(p *sim.Proc) {
		k = newPblk(p, ln, 0)
		const bs = 256 << 10
		region := k.Capacity() / 8 / bs * bs
		mustRun(p, k, fio.Job{Name: "maxw", Pattern: fio.SeqWrite, BS: bs, QD: 2, Size: region, MaxOps: region / bs})
		check(k.Flush(p))
		mustRun(p, k, fio.Job{Name: "maxr", Pattern: fio.SeqRead, BS: bs, QD: 16, NumJobs: 8, Size: region, Runtime: o.Duration})
		check(fio.Prepare(p, k, region, k.Capacity()-region))
		overwrite := k.Capacity() / bs * bs
		mustRun(p, k, fio.Job{Name: "steady", Pattern: fio.SeqWrite, BS: bs, QD: 2, Size: overwrite, MaxOps: overwrite / bs})
		check(k.Flush(p))
		done = true
	})
	env.Run()
	if !done {
		t.Log(k.DebugState())
		t.Fatal("steady-state datapath deadlocked")
	}
}
