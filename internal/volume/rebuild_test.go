package volume

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRebuildParksOverlappingWrites drives foreground writes straight at
// the rebuild engine's active copy window: they must park, restart after
// the window advances, and leave the replicas identical.
func TestRebuildParksOverlappingWrites(t *testing.T) {
	runSim(t, 9, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(2, 1, 9))
		v := mustVolume(t, mgr, "pw0", Mirror(0, 1),
			Options{Rebuild: RebuildConfig{CopyChunk: 256 << 10}})
		const total = 2 << 20
		writeRange(t, p, v, 0, total, 0x81)
		if err := v.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		mgr.Kill(1)
		if err := v.AttachSpare(mgr.TakeSpare()); err != nil {
			t.Fatalf("AttachSpare: %v", err)
		}
		// Chase the cursor: write the chunk the engine is about to copy (or
		// is copying — those park behind the active window).
		buf := make([]byte, v.chunk)
		for v.Rebuilding() {
			rb := v.sets[0].rb
			if rb == nil {
				break
			}
			off := rb.cursor
			if off >= v.colCap {
				break
			}
			fill(buf, off, 0x81)
			if err := v.Write(p, off, buf, int64(len(buf))); err != nil {
				t.Fatalf("write at cursor %d: %v", off, err)
			}
		}
		if !v.WaitRebuild(p) {
			t.Fatal("rebuild did not complete")
		}
		st := v.Stats()
		if st.ParkedWrites == 0 {
			t.Error("no write ever parked behind the copy window; park path untested")
		}
		readVerify(t, p, v, 0, total, 0x81, "post-rebuild readback")
		rep, err := v.Resync(p)
		if err != nil {
			t.Fatalf("resync: %v", err)
		}
		if rep.ChunksMismatched != 0 {
			t.Fatalf("replicas diverged under parked writes: %+v", rep)
		}
	})
}

// TestCrashDuringRebuild power-cuts the whole fleet while a rebuild is
// mid-copy, then recovers: every member remounts through pblk scan
// recovery, the interrupted rebuild restarts from scratch, and every
// acknowledged-and-flushed byte reads back intact.
func TestCrashDuringRebuild(t *testing.T) {
	runSim(t, 10, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(2, 1, 10))
		v := mustVolume(t, mgr, "cr0", Mirror(0, 1),
			Options{Rebuild: RebuildConfig{CopyChunk: 256 << 10, RateMBps: 40}})
		const total = 2 << 20
		writeRange(t, p, v, 0, total, 0xC3)
		if err := v.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		mgr.Kill(1)
		sp := mgr.TakeSpare()
		if err := v.AttachSpare(sp); err != nil {
			t.Fatalf("AttachSpare: %v", err)
		}
		// Let the rate-limited rebuild get partway, then cut power.
		p.Sleep(200 * time.Millisecond)
		if pr := v.RebuildProgress(); pr <= 0 || pr >= 1 {
			t.Fatalf("rebuild should be mid-flight at crash time, progress=%.2f", pr)
		}
		mgr.CrashAll()
		if _, err := mgr.Recover(p); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if !v.Rebuilding() || sp.state != StateRebuilding {
			t.Fatal("interrupted rebuild did not restart after recovery")
		}
		if !v.WaitRebuild(p) {
			t.Fatal("restarted rebuild did not complete")
		}
		if v.Degraded() {
			t.Fatal("volume degraded after recovery and rebuild")
		}
		// Zero data loss: everything acknowledged before the flush barrier.
		readVerify(t, p, v, 0, total, 0xC3, "post-crash readback")
		rep, err := v.Resync(p)
		if err != nil {
			t.Fatalf("resync: %v", err)
		}
		if rep.ChunksMismatched != 0 {
			t.Fatalf("replicas diverged across the crash: %+v", rep)
		}
	})
}

// TestCrashRecoverySansRebuild is the plain fleet power-cut drill: data
// flushed before the cut must survive scan recovery on every member.
func TestCrashRecoverySansRebuild(t *testing.T) {
	runSim(t, 11, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(4, 0, 11))
		v := mustVolume(t, mgr, "cc0", StripeOfMirrors(128<<10, []int{0, 1}, []int{2, 3}), Options{})
		const total = 2 << 20
		writeRange(t, p, v, 0, total, 0xE7)
		if err := v.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		// More writes, deliberately unflushed: allowed to be lost, must not
		// wedge recovery.
		writeRange(t, p, v, total, 512<<10, 0xE7)
		mgr.CrashAll()
		if _, err := mgr.Recover(p); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		// Unacknowledged in-flight writes may have landed on a subset of
		// replicas; resync converges them before verifying.
		if _, err := v.Resync(p); err != nil {
			t.Fatalf("resync: %v", err)
		}
		readVerify(t, p, v, 0, total, 0xE7, "flushed data after power cut")
	})
}

// TestTrimReachesRebuildingSpare trims a mirror while a spare is being
// rebuilt: a trim behind the cursor must reach the spare, and one into the
// active copy window must park until the window moves, or the rebuilt
// spare keeps bytes its peer dropped and reads alternate between them.
func TestTrimReachesRebuildingSpare(t *testing.T) {
	cases := []struct {
		name string
		trim func(t *testing.T, p *sim.Proc, v *Volume)
	}{
		{"behind cursor", func(t *testing.T, p *sim.Proc, v *Volume) {
			for rb := v.sets[0].rb; rb != nil && rb.cursor < 512<<10; rb = v.sets[0].rb {
				p.Sleep(50 * time.Microsecond)
			}
			if err := v.Trim(p, 0, 256<<10); err != nil {
				t.Fatalf("trim behind cursor: %v", err)
			}
		}},
		{"chasing cursor", func(t *testing.T, p *sim.Proc, v *Volume) {
			for rb := v.sets[0].rb; rb != nil && rb.cursor < v.colCap; rb = v.sets[0].rb {
				if err := v.Trim(p, rb.cursor, v.chunk); err != nil {
					t.Fatalf("trim at cursor %d: %v", rb.cursor, err)
				}
			}
			if v.Stats().ParkedWrites == 0 {
				t.Error("no trim ever parked behind the copy window; park path untested")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runSim(t, 12, func(p *sim.Proc, env *sim.Env) {
				mgr := newFleet(t, p, env, testConfig(2, 1, 12))
				v := mustVolume(t, mgr, "tr0", Mirror(0, 1),
					Options{Rebuild: RebuildConfig{CopyChunk: 256 << 10}})
				writeRange(t, p, v, 0, 2<<20, 0x5A)
				if err := v.Flush(p); err != nil {
					t.Fatalf("flush: %v", err)
				}
				mgr.Kill(1)
				if err := v.AttachSpare(mgr.TakeSpare()); err != nil {
					t.Fatalf("AttachSpare: %v", err)
				}
				tc.trim(t, p, v)
				if !v.WaitRebuild(p) {
					t.Fatal("rebuild did not complete")
				}
				rep, err := v.Resync(p)
				if err != nil {
					t.Fatalf("resync: %v", err)
				}
				if rep.ChunksMismatched != 0 {
					t.Fatalf("rebuilt spare diverged from its peer: %+v", rep)
				}
			})
		})
	}
}
