package pblk

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// churn drives a hot/cold overwrite workload sized to force sustained GC:
// a verifiable cold region, then random overwrites of the rest until the
// requested multiple of the raw media capacity has been written.
func churn(t *testing.T, p *sim.Proc, k *Pblk, coldChunks int, passes int64) {
	t.Helper()
	const chunk = 64 * 1024
	for i := 0; i < coldChunks; i++ {
		if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(0x50+i)), chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Flush(p); err != nil {
		t.Fatal(err)
	}
	hotBase := int64(coldChunks) * chunk
	hotSpan := k.Capacity() - hotBase - chunk
	rng := rand.New(rand.NewSource(21))
	for vol := int64(0); vol < passes*k.Device().Geometry().TotalBytes(); vol += chunk {
		off := hotBase + rng.Int63n(hotSpan/chunk)*chunk
		if err := k.Write(p, off, nil, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Flush(p); err != nil {
		t.Fatal(err)
	}
}

// verifyCold checks the cold region written by churn survived relocation.
func verifyCold(t *testing.T, p *sim.Proc, k *Pblk, coldChunks int) {
	t.Helper()
	const chunk = 64 * 1024
	got := make([]byte, chunk)
	for i := 0; i < coldChunks; i++ {
		if err := k.Read(p, int64(i)*chunk, got, chunk); err != nil {
			t.Fatalf("cold read %d: %v", i, err)
		}
		if !bytes.Equal(got, fill(chunk, byte(0x50+i))) {
			t.Fatalf("cold chunk %d corrupted", i)
		}
	}
}

// TestGCPipelineKeepsVictimsInFlight checks that the GC scheduler actually
// overlaps victims: under sustained overwrite pressure with the default
// pipeline depth, more than one victim must have been in flight at once,
// while depth 1 must degrade to the sequential reclaim loop.
func TestGCPipelineKeepsVictimsInFlight(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int
	}{{"depth4", 4}, {"depth1", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, testDeviceConfig())
			e.run(func(p *sim.Proc) {
				k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25, GCPipelineDepth: tc.depth})
				defer k.Stop(p)
				churn(t, p, k, 8, 3)
				if k.Stats.GCBlocksRecycled == 0 {
					t.Fatal("workload did not trigger GC")
				}
				if tc.depth == 1 && k.Stats.GCPeakInFlight != 1 {
					t.Fatalf("depth 1 ran %d victims concurrently", k.Stats.GCPeakInFlight)
				}
				if tc.depth > 1 && k.Stats.GCPeakInFlight < 2 {
					t.Fatalf("depth %d never overlapped victims (peak %d)", tc.depth, k.Stats.GCPeakInFlight)
				}
				verifyCold(t, p, k, 8)
				if err := k.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestPanickingGCMoverNamesItsGroup: the mover's process name is built once
// per group at mount, not formatted per launch, and must still tell
// sim.ProcPanic which group the mover was recycling.
func TestPanickingGCMoverNamesItsGroup(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	var k *Pblk
	defer func() {
		pp, ok := recover().(sim.ProcPanic)
		if !ok {
			t.Fatal("the sabotaged mover did not panic")
		}
		var id int
		if _, err := fmt.Sscanf(pp.Proc, "pblk.pblk0.gcmove%d", &id); err != nil || id <= 0 || id >= len(k.groups) {
			t.Fatalf("panicking process is named %q, want pblk.pblk0.gcmove<group id>", pp.Proc)
		}
		if g := k.groups[id]; g.state != stGC {
			t.Fatalf("mover %q panicked but group %d is in state %v, not under GC", pp.Proc, id, g.state)
		}
	}()
	e.run(func(p *sim.Proc) {
		k = e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
		k.gcAdmit = nil // only movers use it: the first to admit its moves dereferences nil
		churn(t, p, k, 8, 3)
	})
}

// TestStreamSeparation checks that GC rewrites land in their own block
// groups: under churn, GC-stream groups must exist and user data never
// cohabits them, while SingleStream mode must never open one.
func TestStreamSeparation(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
		defer k.Stop(p)
		churn(t, p, k, 8, 3)
		if k.Stats.GCMovedSectors == 0 {
			t.Fatal("no GC moves")
		}
		gcGroups := 0
		for _, g := range k.groups {
			if g.stream == streamGC && (g.state == stClosed || g.state == stOpen) {
				gcGroups++
			}
		}
		if gcGroups == 0 {
			t.Fatal("GC moved sectors but no GC-stream group exists")
		}
		verifyCold(t, p, k, 8)
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSingleStreamMode checks the WA-baseline escape hatch: with
// SingleStream set, GC rewrites ride the user stream and no GC-stream
// group is ever opened.
func TestSingleStreamMode(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25, SingleStream: true})
		defer k.Stop(p)
		churn(t, p, k, 8, 3)
		if k.Stats.GCMovedSectors == 0 {
			t.Fatal("no GC moves")
		}
		for _, g := range k.groups {
			if g.stream == streamGC {
				t.Fatalf("group %d opened on the GC stream despite SingleStream", g.id)
			}
		}
		if k.gcOpenLanes != 0 {
			t.Fatalf("gcOpenLanes = %d in SingleStream mode", k.gcOpenLanes)
		}
		verifyCold(t, p, k, 8)
	})
}

// TestGCLostSectors injects uncorrectable read errors and checks that GC
// counts the sectors it had to abandon — the paper's "data is lost from
// the device's perspective" case — instead of skipping them silently, and
// that the count is surfaced for diagnostics.
func TestGCLostSectors(t *testing.T) {
	cfg := testDeviceConfig()
	cfg.Media.ReadFailProb = 0.02
	e := newEnv(t, cfg)
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
		defer k.Stop(p)
		const chunk = 64 * 1024
		// Cold data plus churn: GC must relocate cold sectors through the
		// failing reads.
		for i := 0; i < 8; i++ {
			if err := k.Write(p, int64(i)*chunk, fill(chunk, byte(i+1)), chunk); err != nil {
				t.Fatal(err)
			}
		}
		k.Flush(p)
		hotBase := int64(8) * chunk
		hotSpan := k.Capacity() - hotBase - chunk
		rng := rand.New(rand.NewSource(3))
		for vol := int64(0); vol < 3*k.Device().Geometry().TotalBytes(); vol += chunk {
			off := hotBase + rng.Int63n(hotSpan/chunk)*chunk
			if err := k.Write(p, off, nil, chunk); err != nil {
				t.Fatal(err)
			}
		}
		k.Flush(p)
		if k.Stats.GCMovedSectors == 0 {
			t.Fatal("workload did not trigger GC moves")
		}
		if k.Stats.GCLostSectors == 0 {
			t.Skip("no injected read failure hit a live GC move at this seed")
		}
		if !strings.Contains(k.DebugState(), "gcLost=") {
			t.Fatal("GCLostSectors not surfaced in DebugState")
		}
	})
}

// TestGCScoreOrdering pins the cost-benefit policy's shape: emptier beats
// fuller, older beats younger at equal occupancy, and less-worn beats
// more-worn at equal occupancy and age — with occupancy dominating both
// modifiers.
func TestGCScoreOrdering(t *testing.T) {
	k := metaHarness(t)
	k.seqCounter = 1000
	k.eraseTotal = int64(k.usableGroups) * 4 // fleet average 4 erases
	mk := func(valid int, seq uint64, erases int) *group {
		return &group{valid: valid, seq: seq, erases: erases}
	}
	low := mk(k.dataSectors/8, 900, 4)
	high := mk(k.dataSectors/2, 900, 4)
	if k.gcScore(low) <= k.gcScore(high) {
		t.Fatal("fuller group scored at least as high as emptier group")
	}
	young := mk(k.dataSectors/2, 999, 4)
	old := mk(k.dataSectors/2, 1, 4)
	if k.gcScore(old) <= k.gcScore(young) {
		t.Fatal("older group did not outscore younger at equal occupancy")
	}
	worn := mk(k.dataSectors/2, 900, 40)
	fresh := mk(k.dataSectors/2, 900, 0)
	if k.gcScore(fresh) <= k.gcScore(worn) {
		t.Fatal("less-worn group did not outscore worn at equal occupancy")
	}
	// Occupancy dominates: a nearly-full ancient group must not beat a
	// nearly-empty young one.
	fullOld := mk(k.dataSectors*9/10, 1, 0)
	emptyYoung := mk(k.dataSectors/10, 999, 8)
	if k.gcScore(fullOld) >= k.gcScore(emptyYoung) {
		t.Fatal("age/wear boost overpowered the valid ratio")
	}
}

// TestQuiesceEventDriven regression-tests the event-driven quiesce: a
// Shutdown over a busy instance must complete (and write a loadable
// snapshot) without the old polling loop.
func TestQuiesceEventDriven(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		k := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
		churn(t, p, k, 8, 2)
		if err := k.Shutdown(p); err != nil {
			t.Fatal(err)
		}
		for _, g := range k.groups {
			if g.state == stOpen || g.state == stGC {
				t.Fatalf("group %d still %v after quiesced shutdown", g.id, g.state)
			}
		}
		k2 := e.newPblk(p, Config{ActivePUs: 4, OverProvision: 0.25})
		defer k2.Stop(p)
		if k2.Stats.SnapshotLoads != 1 {
			t.Fatalf("snapshot loads = %d after graceful shutdown", k2.Stats.SnapshotLoads)
		}
		verifyCold(t, p, k2, 8)
	})
}
