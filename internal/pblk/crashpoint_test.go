package pblk

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"repro/internal/lightnvm"
	"repro/internal/sim"
)

// TestCrashMidGCMultiVictim crashes while the pipelined GC has several
// victims in flight and both write streams hold open groups, then checks
// scan recovery: every flushed sector must survive, and replay must be
// deterministic — recovering the same media twice yields the same L2P.
func TestCrashMidGCMultiVictim(t *testing.T) {
	const trials = 6
	const chunk = int64(64 * 1024)
	gcWasLive := false
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("crash%d", trial), func(t *testing.T) {
			// A small device with thick over-provisioning keeps the GC
			// pipeline saturated within a short workload.
			devCfg := testDeviceConfig()
			devCfg.Geometry.BlocksPerPlane = 12
			e := newEnv(t, devCfg)

			// hist holds every generation written to a chunk, in order;
			// durIdx marks the newest generation covered by a completed
			// flush. After a crash, each sector of a chunk must read back
			// SOME generation at or after its durable one — intermediate
			// post-flush generations may legitimately survive.
			hist := map[int64][]byte{}
			durIdx := map[int64]int{}

			var k *Pblk
			e.sim.Go("workload", func(p *sim.Proc) {
				k = e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.4, GCPipelineDepth: 4})
				chunks := k.Capacity() / chunk
				rng := e.sim.Rand()
				for {
					for i := 0; i < 16; i++ {
						ci := rng.Int63n(chunks)
						gen := byte(rng.Intn(200) + 1)
						if err := k.Write(p, ci*chunk, fill(int(chunk), gen), chunk); err != nil {
							if err == ErrStopped {
								return
							}
							t.Errorf("write: %v", err)
							return
						}
						hist[ci] = append(hist[ci], gen)
					}
					if err := k.Flush(p); err != nil {
						if err == ErrStopped {
							return
						}
						t.Errorf("flush: %v", err)
						return
					}
					for ci := range hist {
						durIdx[ci] = len(hist[ci]) - 1
					}
				}
			})
			for k == nil {
				e.sim.RunUntil(e.sim.Now() + 10*time.Millisecond)
			}
			// Run until the GC pipeline is observably busy — several
			// victims in flight and a GC-stream group open — nudging the
			// crash point per trial, then cut power mid-reclaim.
			e.sim.RunUntil(e.sim.Now() + time.Duration(10+trial*7)*time.Millisecond)
			deadline := e.sim.Now() + 10*time.Second
			for e.sim.Now() < deadline && !(k.gcInFlight > 1 && k.gcOpenLanes > 0) {
				e.sim.RunUntil(e.sim.Now() + 150*time.Microsecond)
			}
			if k.gcInFlight > 1 && k.gcOpenLanes > 0 {
				gcWasLive = true
			}
			k.Crash()
			e.sim.Run()

			e.sim.Go("verify", func(p *sim.Proc) {
				k2 := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.4})
				if k2.Stats.Recoveries != 1 || k2.Stats.SnapshotLoads != 0 {
					t.Error("mid-GC crash must recover by scan")
				}
				if err := k2.CheckInvariants(); err != nil {
					t.Error(err)
				}
				// Durability is per sector: the sectors of one unflushed
				// chunk write can reach media on different lanes, so they
				// may read different generations after the crash.
				ss := e.dev.Geometry().SectorSize
				got := make([]byte, chunk)
				for _, ci := range slices.Sorted(maps.Keys(durIdx)) {
					di := durIdx[ci]
					if err := k2.Read(p, ci*chunk, got, chunk); err != nil {
						t.Errorf("chunk %d: read after recovery: %v", ci, err)
						return
					}
					held := make([]bool, chunk/int64(ss))
					for _, gen := range hist[ci][di:] {
						want := fill(int(chunk), gen)
						for s := range held {
							held[s] = held[s] || bytes.Equal(got[s*ss:(s+1)*ss], want[s*ss:(s+1)*ss])
						}
					}
					if s := slices.Index(held, false); s >= 0 {
						t.Errorf("chunk %d sector %d: flushed generation %d lost after mid-GC crash", ci, s, hist[ci][di])
						return
					}
				}
				// Replay determinism: crash the recovered instance without
				// writing and recover again — the L2P must be identical
				// (recovery's own padding and close metadata must not
				// change what replays).
				l2p := append([]uint64(nil), k2.l2p...)
				k2.Crash()
				k3 := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.4})
				defer k3.Stop(p)
				for i := range l2p {
					if k3.l2p[i] != l2p[i] {
						t.Fatalf("l2p[%d] changed across repeated scan recovery: %x != %x", i, k3.l2p[i], l2p[i])
					}
				}
			})
			e.sim.Run()
		})
	}
	if !gcWasLive {
		t.Error("no trial crashed with multiple victims in flight and a GC-stream group open; retune crash points")
	}
}

// TestCrashPointProperty is a crash-consistency property test: run a
// flush-punctuated workload, cut power at a random instant, recover on a
// fresh pblk instance, and verify that every sector covered by a completed
// flush reads back its exact pre-crash content. Repeated over many crash
// points, this exercises crashes mid-program, mid-GC, mid-close-meta, and
// mid-group-open.
func TestCrashPointProperty(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("crash%d", trial), func(t *testing.T) {
			e := newEnv(t, testDeviceConfig())
			ss := int64(4096)

			// durable[lba] = generation covered by the last completed flush;
			// written[lba] = newest acked (possibly unflushed) generation.
			durable := map[int64]byte{}
			written := map[int64]byte{}

			var k *Pblk
			e.sim.Go("workload", func(p *sim.Proc) {
				k = e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
				lbas := k.Capacity() / ss
				rng := e.sim.Rand()
				for round := 0; ; round++ {
					// A burst of writes...
					for i := 0; i < 30; i++ {
						lba := rng.Int63n(lbas)
						gen := byte(rng.Intn(200) + 1)
						if err := k.Write(p, lba*ss, fill(int(ss), gen), ss); err != nil {
							if err == ErrStopped {
								return
							}
							t.Errorf("write: %v", err)
							return
						}
						written[lba] = gen
					}
					// ...then a flush makes them durable.
					if err := k.Flush(p); err != nil {
						if err == ErrStopped {
							return
						}
						t.Errorf("flush: %v", err)
						return
					}
					for lba, gen := range written {
						durable[lba] = gen
					}
				}
			})
			// Let initialization (recovery scan) finish, then cut power at
			// a trial-specific instant into the workload.
			for k == nil {
				e.sim.RunUntil(e.sim.Now() + 10*time.Millisecond)
			}
			e.sim.RunUntil(e.sim.Now() + time.Duration(3+trial*7)*time.Millisecond)
			crashAt := e.sim.Now()
			k.Crash()
			e.sim.Run() // drain the stopped workload

			// Recover on a new instance and verify all durable sectors.
			e.sim.Go("verify", func(p *sim.Proc) {
				k2 := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
				defer k2.Stop(p)
				if k2.Stats.SnapshotLoads != 0 {
					t.Error("crash recovery must not load a snapshot")
				}
				got := make([]byte, ss)
				for lba, gen := range durable {
					if err := k2.Read(p, lba*ss, got, ss); err != nil {
						t.Errorf("lba %d: read after recovery: %v", lba, err)
						return
					}
					// The sector must hold either its durable generation or
					// a NEWER acked one (unflushed writes may survive).
					if bytes.Equal(got, fill(int(ss), gen)) {
						continue
					}
					if w, ok := written[lba]; ok && bytes.Equal(got, fill(int(ss), w)) {
						continue
					}
					t.Errorf("lba %d: flushed generation %d lost after crash at %v", lba, gen, crashAt)
					return
				}
			})
			e.sim.Run()
		})
	}
}

// TestCrashMultiTenantMidGC cuts power while TWO pblk targets share one
// device over disjoint PU ranges and at least one of them is mid-GC.
// Both must come back by scan recovery — each scanning only its own
// partition — with every flushed sector intact, L2Ps confined to their
// own PU ranges, and no media error before or after the crash (a command
// crossing a partition fails at its view).
func TestCrashMultiTenantMidGC(t *testing.T) {
	const trials = 5
	const chunk = int64(32 * 1024)
	names := []string{"pblk0", "pblk1"}
	ranges := []lightnvm.PURange{{Begin: 0, End: 2}, {Begin: 2, End: 4}}
	cfg := Config{ActivePUs: 2, OverProvision: 0.4, GCPipelineDepth: 2}
	gcWasLive := false
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("crash%d", trial), func(t *testing.T) {
			devCfg := testDeviceConfig()
			devCfg.Geometry.BlocksPerPlane = 16
			e := newEnv(t, devCfg)

			// Per-tenant write history and durable watermark, as in
			// TestCrashMidGCMultiVictim.
			hist := []map[int64][]byte{{}, {}}
			durIdx := []map[int64]int{{}, {}}
			ks := make([]*Pblk, 2)
			for i := range names {
				i := i
				e.sim.Go(names[i], func(p *sim.Proc) {
					k, err := mountTenant(p, e.lnvm, names[i], ranges[i], cfg)
					if err != nil {
						t.Fatal(err) // ends the run: the wait for ks below would spin
					}
					ks[i] = k
					chunks := k.Capacity() / chunk
					rng := e.sim.Rand()
					for {
						for n := 0; n < 12; n++ {
							ci := rng.Int63n(chunks)
							gen := byte(rng.Intn(200) + 1)
							if err := k.Write(p, ci*chunk, fill(int(chunk), gen), chunk); err != nil {
								if err == ErrStopped {
									return
								}
								t.Errorf("tenant %d write: %v", i, err)
								return
							}
							hist[i][ci] = append(hist[i][ci], gen)
						}
						if err := k.Flush(p); err != nil {
							if err == ErrStopped {
								return
							}
							t.Errorf("tenant %d flush: %v", i, err)
							return
						}
						for ci := range hist[i] {
							durIdx[i][ci] = len(hist[i][ci]) - 1
						}
					}
				})
			}
			for ks[0] == nil || ks[1] == nil {
				e.sim.RunUntil(e.sim.Now() + 10*time.Millisecond)
			}
			e.sim.RunUntil(e.sim.Now() + time.Duration(5+trial*9)*time.Millisecond)
			deadline := e.sim.Now() + 10*time.Second
			for e.sim.Now() < deadline && ks[0].gcInFlight == 0 && ks[1].gcInFlight == 0 {
				e.sim.RunUntil(e.sim.Now() + 150*time.Microsecond)
			}
			if ks[0].gcInFlight > 0 || ks[1].gcInFlight > 0 {
				gcWasLive = true
			}
			// Power cut hits both tenants at the same instant.
			ks[0].Crash()
			ks[1].Crash()
			e.sim.Run()
			for _, k := range ks {
				assertNoMediaErrors(t, k)
			}

			e.sim.Go("verify", func(p *sim.Proc) {
				// Host restart within the run: the crash released both
				// ranges, so each tenant remounts on its own at once.
				for i, n := range names {
					k2, err := mountTenant(p, e.lnvm, n, ranges[i], cfg)
					if err != nil {
						t.Fatal(err)
					}
					if k2.Stats.Recoveries != 1 || k2.Stats.SnapshotLoads != 0 {
						t.Errorf("%s: mid-GC crash must recover by scan", n)
					}
					if err := k2.CheckInvariants(); err != nil {
						t.Error(err)
					}
					got := make([]byte, chunk)
					for ci, di := range durIdx[i] {
						if err := k2.Read(p, ci*chunk, got, chunk); err != nil {
							t.Errorf("%s chunk %d: read after recovery: %v", n, ci, err)
							return
						}
						ok := false
						for _, gen := range hist[i][ci][di:] {
							if bytes.Equal(got, fill(int(chunk), gen)) {
								ok = true
								break
							}
						}
						if !ok {
							t.Errorf("%s chunk %d: flushed generation lost after multi-tenant crash", n, ci)
							return
						}
					}
					// The recovered L2P must stay inside the tenant's own
					// partition: scan recovery never classified, read, or
					// replayed a foreign group.
					assertConfined(t, k2)
					if err := k2.Stop(p); err != nil {
						t.Error(err)
					}
					assertNoMediaErrors(t, k2)
				}
			})
			e.sim.Run()
		})
	}
	if !gcWasLive {
		t.Error("no trial crashed with GC in flight on either tenant; retune crash points")
	}
}
