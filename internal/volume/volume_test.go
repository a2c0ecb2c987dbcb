package volume

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/pblk"
	"repro/internal/sim"
)

// testConfig is a compact fleet: 4-PU members keep whole-member rebuild
// copies cheap while still exercising real pblk datapaths underneath.
func testConfig(devices, spares int, seed int64) Config {
	oc := DefaultDeviceConfig(20)
	oc.Geometry.Channels = 2
	oc.Geometry.PUsPerChannel = 2
	oc.Geometry.PagesPerBlock = 16
	return Config{Devices: devices, Spares: spares, OCSSD: oc, Seed: seed,
		Pblk: pblk.Config{OverProvision: 0.25}}
}

// runSim drives fn as a simulation process to completion and fails the
// test if the process never finished (a wedged event would otherwise let
// env.Run return with assertions silently skipped).
func runSim(t *testing.T, seed int64, fn func(p *sim.Proc, env *sim.Env)) {
	t.Helper()
	env := sim.NewEnv(seed)
	done := false
	env.Go("main", func(p *sim.Proc) {
		fn(p, env)
		done = true
	})
	env.Run()
	if !done {
		t.Fatal("simulation deadlocked: main process never finished")
	}
}

// fill writes a position-dependent pattern so misplaced chunks are caught.
func fill(buf []byte, off int64, salt byte) {
	for i := range buf {
		x := off + int64(i)
		buf[i] = byte(x) ^ byte(x>>11) ^ salt
	}
}

func verify(t *testing.T, buf []byte, off int64, salt byte, ctx string) {
	t.Helper()
	for i := range buf {
		x := off + int64(i)
		if want := byte(x) ^ byte(x>>11) ^ salt; buf[i] != want {
			t.Fatalf("%s: byte %d (volume off %d) = %#x, want %#x", ctx, i, x, buf[i], want)
		}
	}
}

func newFleet(t *testing.T, p *sim.Proc, env *sim.Env, cfg Config) *Manager {
	t.Helper()
	mgr, err := NewManager(p, env, cfg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return mgr
}

func mustVolume(t *testing.T, mgr *Manager, name string, l Layout, opt Options) *Volume {
	t.Helper()
	v, err := mgr.CreateVolume(name, l, opt)
	if err != nil {
		t.Fatalf("CreateVolume(%s): %v", name, err)
	}
	return v
}

func writeRange(t *testing.T, p *sim.Proc, v *Volume, off, n int64, salt byte) {
	t.Helper()
	const step = 256 << 10
	buf := make([]byte, step)
	for o := off; o < off+n; o += step {
		w := int64(step)
		if off+n-o < w {
			w = off + n - o
		}
		fill(buf[:w], o, salt)
		if err := v.Write(p, o, buf[:w], w); err != nil {
			t.Fatalf("write %d+%d: %v", o, w, err)
		}
	}
}

func readVerify(t *testing.T, p *sim.Proc, v *Volume, off, n int64, salt byte, ctx string) {
	t.Helper()
	const step = 256 << 10
	buf := make([]byte, step)
	for o := off; o < off+n; o += step {
		w := int64(step)
		if off+n-o < w {
			w = off + n - o
		}
		if err := v.Read(p, o, buf[:w], w); err != nil {
			t.Fatalf("%s: read %d+%d: %v", ctx, o, w, err)
		}
		verify(t, buf[:w], o, salt, ctx)
	}
}

func TestStripeDataPath(t *testing.T) {
	runSim(t, 1, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(4, 0, 1))
		v := mustVolume(t, mgr, "s0", Stripe(64<<10, 0, 1, 2, 3), Options{})
		if got := v.Capacity(); got <= 0 || got%(4*v.Chunk()) != 0 {
			t.Fatalf("capacity %d not a positive multiple of stripe width", got)
		}
		const total = 4 << 20
		writeRange(t, p, v, 0, total, 0xA5)
		if err := v.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		readVerify(t, p, v, 0, total, 0xA5, "stripe readback")
		for id := 0; id < 4; id++ {
			m := mgr.Member(id)
			if m.SubWrites == 0 || m.SubReads == 0 {
				t.Errorf("member %d saw no traffic (w=%d r=%d): striping broken", id, m.SubWrites, m.SubReads)
			}
		}
		// Unaligned span crossing chunk and therefore device boundaries.
		buf := make([]byte, 40<<10)
		if err := v.Read(p, 52<<10, buf, int64(len(buf))); err != nil {
			t.Fatalf("unaligned read: %v", err)
		}
		verify(t, buf, 52<<10, 0xA5, "unaligned read")
		st := v.Stats()
		if st.Reads == 0 || st.Writes == 0 || st.DegradedReads != 0 {
			t.Errorf("unexpected stats: %+v", st)
		}
	})
}

func TestMirrorDegradedServing(t *testing.T) {
	runSim(t, 2, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(2, 0, 2))
		v := mustVolume(t, mgr, "m0", Mirror(0, 1), Options{})
		const total = 2 << 20
		writeRange(t, p, v, 0, total, 0x3C)
		if err := v.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if w0, w1 := mgr.Member(0).SubWrites, mgr.Member(1).SubWrites; w0 == 0 || w0 != w1 {
			t.Fatalf("mirror writes not fanned out: member0=%d member1=%d", w0, w1)
		}
		readVerify(t, p, v, 0, total, 0x3C, "healthy readback")
		if r0, r1 := mgr.Member(0).SubReads, mgr.Member(1).SubReads; r0 == 0 || r1 == 0 {
			t.Fatalf("reads not balanced: member0=%d member1=%d", r0, r1)
		}

		mgr.Kill(1)
		if mgr.Member(1).State() != StateDead {
			t.Fatalf("killed member state = %v", mgr.Member(1).State())
		}
		if !mgr.Member(1).Target().Crashed() {
			t.Fatal("dead member's pblk instance not crashed")
		}
		if !v.Degraded() {
			t.Fatal("volume not degraded after member death")
		}
		deadReads := mgr.Member(1).SubReads
		// Every acknowledged byte still reads back, and new writes land.
		readVerify(t, p, v, 0, total, 0x3C, "degraded readback")
		writeRange(t, p, v, total, 1<<20, 0x3C)
		readVerify(t, p, v, total, 1<<20, 0x3C, "degraded write readback")
		st := v.Stats()
		if st.DegradedReads == 0 || st.MemberDeaths != 1 {
			t.Errorf("stats after death: %+v", st)
		}
		// A read routed to the dead member bounces off its death gate and is
		// retried on the survivor: it shows as a retry, not in SubReads.
		if r := mgr.Member(1).SubReads; r != deadReads || st.RetriedReads != 0 {
			t.Errorf("dead member still routed reads: SubReads %d -> %d, %d retries", deadReads, r, st.RetriedReads)
		}
	})
}

func TestStripeOfMirrorsFaultTolerance(t *testing.T) {
	runSim(t, 3, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(4, 0, 3))
		v := mustVolume(t, mgr, "sm0", StripeOfMirrors(128<<10, []int{0, 1}, []int{2, 3}), Options{})
		if got, want := v.LayoutString(), "stripe[2]xmirror[2] chunk=128K"; got != want {
			t.Errorf("LayoutString = %q, want %q", got, want)
		}
		const total = 2 << 20
		writeRange(t, p, v, 0, total, 0x5A)
		if err := v.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		// One death per column: still serving everything.
		mgr.Kill(0)
		mgr.Kill(3)
		readVerify(t, p, v, 0, total, 0x5A, "one-per-column degraded")
		// Losing the second replica of column 1 loses that column's data...
		mgr.Kill(2)
		buf := make([]byte, 128<<10)
		if err := v.Read(p, 128<<10, buf, int64(len(buf))); !errors.Is(err, ErrNoReplica) {
			t.Fatalf("read of dead column: err=%v, want ErrNoReplica", err)
		}
		// ...but column 0 chunks still serve.
		if err := v.Read(p, 0, buf, int64(len(buf))); err != nil {
			t.Fatalf("read of surviving column: %v", err)
		}
		verify(t, buf, 0, 0x5A, "surviving column")
	})
}

func TestTransientFaultRetriesDeterministic(t *testing.T) {
	scenario := func() (Stats, int64) {
		var st Stats
		var injected int64
		runSim(t, 4, func(p *sim.Proc, env *sim.Env) {
			mgr := newFleet(t, p, env, testConfig(2, 0, 4))
			v := mustVolume(t, mgr, "f0", Mirror(0, 1), Options{})
			const total = 1 << 20
			writeRange(t, p, v, 0, total, 0x11)
			if err := v.Flush(p); err != nil {
				t.Fatalf("flush: %v", err)
			}
			mgr.InjectFaults(0, FaultConfig{Seed: 99, ReadErrorRate: 0.4})
			readVerify(t, p, v, 0, total, 0x11, "reads under injected faults")
			st = v.Stats()
			injected = mgr.Member(0).Injected
		})
		return st, injected
	}
	st1, inj1 := scenario()
	if inj1 == 0 || st1.RetriedReads == 0 {
		t.Fatalf("injector never tripped: injected=%d retried=%d", inj1, st1.RetriedReads)
	}
	if st1.Ejections != 0 || st1.MemberDeaths != 0 {
		t.Fatalf("transient read faults must not eject members: %+v", st1)
	}
	st2, inj2 := scenario()
	if st1 != st2 || inj1 != inj2 {
		t.Fatalf("fault scenario not deterministic:\n  run1 %+v inj=%d\n  run2 %+v inj=%d", st1, inj1, st2, inj2)
	}
}

func TestPersistentWriteFailureEjects(t *testing.T) {
	runSim(t, 5, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(2, 0, 5))
		v := mustVolume(t, mgr, "e0", Mirror(0, 1), Options{})
		mgr.InjectFaults(1, FaultConfig{Seed: 7, WriteErrorRate: 1})
		buf := make([]byte, 256<<10)
		fill(buf, 0, 0x66)
		// The write must succeed — replica 0 holds the data — and the
		// persistently failing replica must be ejected so it can never
		// serve a read missing this write.
		if err := v.Write(p, 0, buf, int64(len(buf))); err != nil {
			t.Fatalf("mirrored write with one failing replica: %v", err)
		}
		if mgr.Member(1).State() != StateDead {
			t.Fatalf("failing member state = %v, want dead", mgr.Member(1).State())
		}
		st := v.Stats()
		if st.Ejections != 1 || st.RetriedWrites == 0 {
			t.Fatalf("ejection stats: %+v", st)
		}
		if !v.Degraded() {
			t.Fatal("volume not degraded after ejection")
		}
		readVerify(t, p, v, 0, int64(len(buf)), 0x66, "post-ejection readback")
	})
}

func TestRebuildToSpare(t *testing.T) {
	runSim(t, 6, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(2, 1, 6))
		v := mustVolume(t, mgr, "r0", Mirror(0, 1),
			Options{Rebuild: RebuildConfig{CopyChunk: 512 << 10}})
		const total = 2 << 20
		writeRange(t, p, v, 0, total, 0x2B)
		if err := v.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
		mgr.Kill(1)
		sp := mgr.TakeSpare()
		if sp == nil {
			t.Fatal("no spare in pool")
		}
		if err := v.AttachSpare(sp); err != nil {
			t.Fatalf("AttachSpare: %v", err)
		}
		if !v.Rebuilding() || sp.State() != StateRebuilding {
			t.Fatal("rebuild engine not running after AttachSpare")
		}
		// Foreground writes keep landing while the spare fills.
		writeRange(t, p, v, total, 1<<20, 0x2B)
		if !v.WaitRebuild(p) {
			t.Fatal("rebuild did not complete successfully")
		}
		if v.Degraded() || v.Rebuilding() || sp.State() != StateHealthy {
			t.Fatalf("post-rebuild state: degraded=%v rebuilding=%v spare=%v",
				v.Degraded(), v.Rebuilding(), sp.State())
		}
		if pr := v.RebuildProgress(); pr != 1 {
			t.Fatalf("RebuildProgress after completion = %v", pr)
		}
		// The new replica serves reads and holds identical data.
		before := sp.SubReads
		readVerify(t, p, v, 0, total+1<<20, 0x2B, "post-rebuild readback")
		if sp.SubReads == before {
			t.Error("rebuilt spare took no reads")
		}
		rep, err := v.Resync(p)
		if err != nil {
			t.Fatalf("resync: %v", err)
		}
		if rep.ChunksMismatched != 0 {
			t.Fatalf("replicas diverged after rebuild: %+v", rep)
		}
	})
}

// The spare pool hands out the lowest id first.
func TestSparePoolOrder(t *testing.T) {
	runSim(t, 8, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(1, 3, 8))
		var got []int
		for sp := mgr.TakeSpare(); sp != nil; sp = mgr.TakeSpare() {
			if sp.State() != StateSpare {
				t.Fatalf("spare %d is %v", sp.ID(), sp.State())
			}
			got = append(got, sp.ID())
		}
		if !slices.Equal(got, []int{1, 2, 3}) {
			t.Fatalf("spares taken: %v, want [1 2 3]", got)
		}
	})
}

// TestQueueFanoutFlushBarrier drives the volume through its native
// asynchronous queue: concurrent writes, a flush barrier, and reads must
// complete in contract order across the fan-out.
func TestQueueFanoutFlushBarrier(t *testing.T) {
	runSim(t, 8, func(p *sim.Proc, env *sim.Env) {
		mgr := newFleet(t, p, env, testConfig(4, 0, 8))
		v := mustVolume(t, mgr, "q0", StripeOfMirrors(64<<10, []int{0, 1}, []int{2, 3}), Options{})
		q := blockdev.OpenQueue(env, v, 8)
		const n = 16
		const sz = 128 << 10
		bufs := make([][]byte, n)
		writesDone := 0
		flushDone := false
		for i := 0; i < n; i++ {
			bufs[i] = make([]byte, sz)
			fill(bufs[i], int64(i)*sz, 0x99)
			q.Submit(&blockdev.Request{
				Op: blockdev.ReqWrite, Off: int64(i) * sz, Buf: bufs[i], Length: sz,
				OnComplete: func(r *blockdev.Request) {
					if r.Err != nil {
						t.Errorf("queued write: %v", r.Err)
					}
					if flushDone {
						t.Error("flush barrier completed before a prior write")
					}
					writesDone++
				},
			})
		}
		q.Submit(&blockdev.Request{Op: blockdev.ReqFlush, OnComplete: func(r *blockdev.Request) {
			if r.Err != nil {
				t.Errorf("queued flush: %v", r.Err)
			}
			if writesDone != n {
				t.Errorf("flush completed with %d/%d writes done", writesDone, n)
			}
			flushDone = true
		}})
		q.Drain(p)
		if writesDone != n || !flushDone {
			t.Fatalf("drain returned with writes=%d flush=%v", writesDone, flushDone)
		}
		readVerify(t, p, v, 0, n*sz, 0x99, "async-queue readback")
	})
}
