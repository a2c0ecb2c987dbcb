package pblk

import (
	"math/rand"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/ocssd"
	"repro/internal/sim"
)

// BenchmarkWritePath measures pblk's write path on its own: 64 KiB random
// queue writes at QD16 over an 8-PU device, without payload, so the cost
// is ring admission, L2P updates, unit formation, OOB records and
// completion. A warm-up writes until GC has recycled as many groups as the
// device has, so every group has been opened once and the timed writes
// share the lanes with GC moves. It reports host ns per written sector;
// allocs/op is per 64 KiB write. GC pressure deepens as the run goes on,
// so compare runs at the same -benchtime Nx.
func BenchmarkWritePath(b *testing.B) {
	const qd, bs = 16, 64 << 10
	cfg := testDeviceConfig()
	cfg.Geometry.PUsPerChannel = 4
	s := sim.NewEnv(11)
	dev, err := ocssd.New(s, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ln := lightnvm.Register("bench0", dev)
	s.Go("bench", func(p *sim.Proc) {
		k, err := New(p, ln, "pblk0", Config{})
		if err != nil {
			b.Error(err)
			return
		}
		defer k.Stop(p)
		q := k.OpenQueue(s, qd)
		rng := rand.New(rand.NewSource(1))
		blocks := k.Capacity() / bs
		reqs := make([]blockdev.Request, qd)
		// write issues n writes, qd at a time, and waits for all of them.
		write := func(n int) {
			left, inflight := n, 0
			done := s.NewEvent()
			onDone := func(r *blockdev.Request) {
				if r.Err != nil {
					b.Error(r.Err)
				}
				if left > 0 {
					left--
					r.Off = rng.Int63n(blocks) * bs
					q.Submit(r)
					return
				}
				if inflight--; inflight == 0 {
					done.Signal()
				}
			}
			for i := 0; i < qd && left > 0; i++ {
				left--
				inflight++
				reqs[i] = blockdev.Request{Op: blockdev.ReqWrite, Off: rng.Int63n(blocks) * bs, Length: bs, OnComplete: onDone}
				q.Submit(&reqs[i])
			}
			if inflight > 0 {
				p.Wait(done)
			}
		}
		for k.Stats.GCBlocksRecycled < int64(k.usableGroups) {
			write(1024)
		}
		b.ReportAllocs()
		b.ResetTimer()
		write(b.N)
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bs/cfg.Geometry.SectorSize), "ns/sector")
	})
	s.Run()
}
