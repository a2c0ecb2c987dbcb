package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/fio"
	"repro/internal/lightnvm"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/sim"
)

// TestNilPayloadPrefillStaysSmall guards the sparse NAND page store: on a
// Westlake-geometry device under default pblk, a 256 MiB prefill with nil
// payload may add to the live heap only pblk's own metadata pages, the
// touched blocks' OOB areas and pblk's per-open-group bookkeeping (29 MB on
// top of the 90 MB the mapping table and write buffer cost before any I/O).
// With all-or-nothing 4 MB block arenas the same prefill adds 541 MB, so the
// budget fails loudly if they ever come back.
func TestNilPayloadPrefillStaysSmall(t *testing.T) {
	const fill, budget = 256 << 20, 48 << 20
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	env := sim.NewEnv(1)
	dev, err := ocssd.New(env, ocssd.DefaultConfig(ocssd.WestlakeGeometry(24)))
	if err != nil {
		t.Fatal(err)
	}
	ln := lightnvm.Register("heapguard", dev)
	var k *pblk.Pblk
	env.Go("mount", func(p *sim.Proc) {
		if k, err = pblk.New(p, ln, "pblk0", pblk.Config{}); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	if k == nil {
		t.FailNow()
	}
	before := liveHeap()
	env.Go("fill", func(p *sim.Proc) {
		if err := fio.Prepare(p, k, 0, fill); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	grown := liveHeap() - before
	t.Logf("live heap %d MB mounted, +%d MB after the prefill; NAND page buffers %d MB",
		before>>20, grown>>20, dev.PayloadBytes()>>20)
	if grown > budget {
		t.Fatalf("a %d MB nil-payload prefill grew the live heap by %d MB, budget %d MB",
			fill>>20, grown>>20, budget>>20)
	}
	runtime.KeepAlive(dev)
}
