package pblk

import (
	"testing"

	"repro/internal/lightnvm"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/sim"
)

func TestDebugOverwrite(t *testing.T) {
	s := sim.NewEnv(42)
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	dev, err := ocssd.New(s, ocssd.Config{
		Geometry:  ocssd.WestlakeGeometry(20),
		Timing:    ocssd.DefaultTiming(),
		Media:     m,
		PageCache: true,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := lightnvm.Register("d", dev)
	var k *Pblk
	done := false
	progress := int64(-1)
	s.Go("main", func(p *sim.Proc) {
		var err error
		k, err = New(p, ln, "pblk0", Config{})
		if err != nil {
			t.Error(err)
			return
		}
		const chunk = 256 * 1024
		n := k.Capacity() / chunk
		for pass := 0; pass < 2; pass++ {
			for i := int64(0); i < n; i++ {
				if err := k.Write(p, i*chunk, nil, chunk); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
				progress = int64(pass)*n + i
			}
		}
		k.Flush(p)
		done = true
	})
	s.Run()
	if !done {
		t.Logf("DEADLOCK at chunk %d of %d: free=%d start=%d stop=%d rb{head=%d disp=%d tail=%d userIn=%d gcIn=%d free=%d} quota=%d idle=%v gcActive=%v retry=%d flushes=%d",
			progress, 2*(k.Capacity()/(256*1024)), k.freeGroups, k.gcStartGroups(), k.gcStopGroups(),
			k.rb.head, k.rb.disp, k.rb.tail, k.rb.userIn, k.rb.gcIn, k.rb.free(), k.rl.userQuota, k.rl.idle, k.gcActive, k.retryCount(), k.flushes.Len())
		states := map[groupState]int{}
		minValid, maxValid := 1<<30, -1
		closed := 0
		var gcGroups []*group
		for _, g := range k.groups {
			states[g.state]++
			if g.state == stClosed {
				closed++
				if g.valid < minValid {
					minValid = g.valid
				}
				if g.valid > maxValid {
					maxValid = g.valid
				}
			}
			if g.state == stGC {
				gcGroups = append(gcGroups, g)
			}
		}
		t.Logf("states=%v closed valid range [%d,%d] of %d", states, minValid, maxValid, k.dataSectors)
		for _, g := range gcGroups {
			t.Logf("stGC group %d: valid=%d gcPending=%d gcDone-fired=%v", g.id, g.valid, g.gcPending, g.gcDone != nil && g.gcDone.Fired())
		}
		t.Fatal("deadlocked")
	}
}
