package pblk

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// TestWriteErrorDuringGCMove exercises §4.2.3 error handling on the GC
// path: when a programming failure hits a sector that is itself an
// in-flight GC rewrite, the entry must be remapped and resubmitted through
// the lane retry queue, the victim's gcPending reference must still be
// released on the eventual completion (gcDone fires, no wedged victim),
// and no data may be lost.
func TestWriteErrorDuringGCMove(t *testing.T) {
	cfg := testDeviceConfig()
	cfg.Media.WriteFailProb = 0.01
	e := newEnv(t, cfg)
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.3})
		defer k.Stop(p)
		// Cold region to be dragged around by GC, then hot churn to force
		// sustained GC traffic under injected write failures.
		const chunk = 64 * 1024
		coldChunks := 8
		for i := 0; i < coldChunks; i++ {
			if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(0x60+i)), chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		hotBase := int64(coldChunks) * chunk
		hotSpan := k.Capacity() - hotBase - chunk
		rng := rand.New(rand.NewSource(13))
		for vol := int64(0); vol < 3*k.MediaView().Geometry().TotalBytes(); vol += chunk {
			off := hotBase + rng.Int63n(hotSpan/chunk)*chunk
			if err := k.Write(p, off, nil, chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		if k.Stats.GCMovedSectors == 0 {
			t.Fatal("workload did not trigger GC moves")
		}
		if k.Stats.GCWriteErrors == 0 {
			t.Skip("no write failure hit a GC rewrite at this seed")
		}
		// Every victim must have fully drained: a leaked gcPending
		// reference would leave a group wedged in stGC forever.
		for _, g := range k.groups {
			if g.state == stGC {
				t.Fatalf("group %d stuck in GC after quiesce: gcPending=%d", g.id, g.gcPending)
			}
		}
		got := make([]byte, chunk)
		for i := 0; i < coldChunks; i++ {
			if err := k.Read(p, int64(i)*chunk, got, chunk); err != nil {
				t.Fatalf("cold read %d: %v", i, err)
			}
			if !bytes.Equal(got, fill(chunk, byte(0x60+i))) {
				t.Fatalf("cold chunk %d corrupted by failed GC rewrite", i)
			}
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSetActivePUsUnderQueueTraffic retunes the write provisioning while
// queue-pair traffic is in flight: the lane rebuild must pause admission,
// quiesce and respawn the writers, and lose no acknowledged write.
func TestSetActivePUsUnderQueueTraffic(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		q := k.OpenQueue(e.sim, 32)
		const ss = 4096
		const n = 256
		completed := 0
		for i := 0; i < n; i++ {
			i := i
			q.Submit(&blockdev.Request{
				Op: blockdev.ReqWrite, Off: int64(i) * ss, Length: ss,
				Buf: fill(ss, byte(i%200+1)),
				OnComplete: func(r *blockdev.Request) {
					if r.Err != nil {
						t.Errorf("write %d: %v", i, r.Err)
					}
					completed++
				},
			})
			// Retune twice mid-stream, shrinking and growing the lane set.
			if i == n/3 {
				if err := k.SetActivePUs(p, 2); err != nil {
					t.Fatal(err)
				}
			}
			if i == 2*n/3 {
				if err := k.SetActivePUs(p, 4); err != nil {
					t.Fatal(err)
				}
			}
		}
		q.Drain(p)
		if completed != n {
			t.Fatalf("completed %d of %d queued writes", completed, n)
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, ss)
		for i := 0; i < n; i++ {
			if err := k.Read(p, int64(i)*ss, got, ss); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if !bytes.Equal(got, fill(ss, byte(i%200+1))) {
				t.Fatalf("sector %d lost across lane rebuild", i)
			}
		}
		if k.ActivePUs() != 4 {
			t.Fatalf("active PUs = %d after retunes", k.ActivePUs())
		}
		if err := k.Stop(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecoveryOrderAcrossLanes is a white-box regression for the
// stamp/admission coupling: two buffered generations of the same sectors
// are dispatched to different lanes and the LATER generation's lane
// programs FIRST (a stalled sibling lane). Because sector stamps are
// drawn at ring admission, scan recovery must still replay the newer
// generation last. With stamps drawn at unit formation instead, the
// older generation would carry the higher stamp and recovery would
// resurrect it.
func TestRecoveryOrderAcrossLanes(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		us := k.unitSectors
		ss := 4096
		// Admit two generations of the same unit's worth of sectors with
		// no yield in between, so neither lane writer runs: gen1's chunk
		// lands on lane 0, gen2's on lane 1.
		for gen := byte(1); gen <= 2; gen++ {
			for i := 0; i < us; i++ {
				pos := k.produce(int64(i), fill(ss, gen), false, -1, blockdev.HintNone)
				k.installCacheMapping(int64(i), pos)
			}
			k.dispatch()
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Form and submit the units out of order: the lane holding gen2
		// programs before the lane holding gen1.
		k.writeUnitOn(p, k.slots[1])
		k.writeUnitOn(p, k.slots[0])
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		k.Crash()

		k2 := e.newPblk(p, Config{ActivePUs: 4})
		defer k2.Stop(p)
		got := make([]byte, ss)
		for i := 0; i < us; i++ {
			if err := k2.Read(p, int64(i)*int64(ss), got, int64(ss)); err != nil {
				t.Fatalf("lba %d after recovery: %v", i, err)
			}
			if !bytes.Equal(got, fill(ss, 2)) {
				t.Fatalf("lba %d: recovery replayed the stale generation (stamp/admission inversion)", i)
			}
		}
	})
}

// TestLaneStatsAndInvariants drives all lanes and checks the exported
// telemetry plus the structural invariants at a quiescent point.
func TestLaneStatsAndInvariants(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4})
		defer k.Stop(p)
		unitBytes := int64(k.unitSectors) * 4096
		if err := k.Write(p, 0, nil, unitBytes*8); err != nil {
			t.Fatal(err)
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		ls := k.LaneStats()
		if len(ls) != 4 {
			t.Fatalf("lanes = %d, want 4", len(ls))
		}
		var units int64
		for _, s := range ls {
			if s.PULo >= s.PUHi {
				t.Fatalf("lane %d has empty PU span [%d,%d)", s.Lane, s.PULo, s.PUHi)
			}
			units += s.UnitsWritten
		}
		if units < 8 {
			t.Fatalf("lanes wrote %d units total, want >= 8", units)
		}
		for _, s := range ls {
			if s.UnitsWritten == 0 {
				t.Fatalf("lane %d wrote no units; dispatch is not sharding", s.Lane)
			}
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if !testing.Short() {
			t.Log("\n" + k.DebugState())
		}
	})
}

// TestLaneIsolationUnderStall pins one lane's PU semaphore by letting its
// group fill while the device is slow, and checks that sibling lanes keep
// programming: the sharded datapath's core guarantee. We approximate a
// stalled PU by writing far more than one lane's in-flight bound can hold
// and verifying that all lanes progress (no head-of-line blocking through
// a shared cursor).
func TestLaneIsolationUnderStall(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, MaxInflightPerPU: 1})
		defer k.Stop(p)
		unitBytes := int64(k.unitSectors) * 4096
		if err := k.Write(p, 0, nil, unitBytes*32); err != nil {
			t.Fatal(err)
		}
		if err := k.Flush(p); err != nil {
			t.Fatal(err)
		}
		for _, s := range k.LaneStats() {
			if s.UnitsWritten < 4 {
				t.Fatalf("lane %d wrote only %d units under stall pressure: %+v",
					s.Lane, s.UnitsWritten, k.LaneStats())
			}
		}
	})
}

func ExamplePblk_LaneStats() {
	// LaneStats exposes one row per write lane; fields are stable for
	// tooling even though DebugState's format is not.
	s := LaneStat{Lane: 0, PULo: 0, PUHi: 4, UnitsWritten: 12}
	fmt.Printf("lane %d pus [%d,%d) units %d\n", s.Lane, s.PULo, s.PUHi, s.UnitsWritten)
	// Output: lane 0 pus [0,4) units 12
}
