package lightnvm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

func newDevice(t *testing.T) (*sim.Env, *Device) {
	t.Helper()
	env := sim.NewEnv(1)
	m := nand.DefaultConfig()
	dev, err := ocssd.New(env, ocssd.Config{
		Geometry: ppa.Geometry{
			Channels: 2, PUsPerChannel: 2, PlanesPerPU: 2,
			BlocksPerPlane: 4, PagesPerBlock: 8,
			SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
		},
		Timing: ocssd.DefaultTiming(),
		Media:  m,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, Register("nvme0n1", dev)
}

type fakeTarget struct {
	name    string
	view    *MediaView
	stopped bool
}

func (f *fakeTarget) TargetName() string     { return f.name }
func (f *fakeTarget) Stop(p *sim.Proc) error { f.stopped = true; return nil }

func init() {
	RegisterTargetType("fake", func(p *sim.Proc, view *MediaView, name string, cfg any) (Target, error) {
		if cfg == "fail" {
			return nil, errors.New("nope")
		}
		return &fakeTarget{name: name, view: view}, nil
	})
	// slowfake yields during construction, like pblk running its recovery
	// scan; it exposes the create/create race window.
	RegisterTargetType("slowfake", func(p *sim.Proc, view *MediaView, name string, cfg any) (Target, error) {
		p.Sleep(time.Millisecond)
		if cfg == "fail" {
			return nil, errors.New("nope")
		}
		return &fakeTarget{name: name, view: view}, nil
	})
}

func TestGeometryExposed(t *testing.T) {
	_, d := newDevice(t)
	if d.Name() != "nvme0n1" {
		t.Fatal("name")
	}
	if d.Geometry().Channels != 2 {
		t.Fatal("geometry not exposed")
	}
	if d.Identify().MaxVectorLen != ocssd.MaxVectorLen {
		t.Fatal("identify not exposed")
	}
	if d.Raw() == nil || d.Env() == nil {
		t.Fatal("raw accessors")
	}
}

func TestTargetTypeRegistry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterTargetType("fake", nil)
}

func TestTargetLifecycle(t *testing.T) {
	env, d := newDevice(t)
	env.Go("main", func(p *sim.Proc) {
		tgt, err := d.CreateTarget(p, "fake", "inst0", PURange{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Targets(); len(got) != 1 || got[0] != "inst0" {
			t.Fatalf("targets = %v", got)
		}
		if _, err := d.CreateTarget(p, "fake", "inst0", PURange{}, nil); err == nil {
			t.Fatal("duplicate instance accepted")
		}
		if _, err := d.CreateTarget(p, "missing", "x", PURange{}, nil); err == nil {
			t.Fatal("unknown type accepted")
		}
		if _, err := d.CreateTarget(p, "fake", "bad", PURange{}, "fail"); err == nil {
			t.Fatal("factory error swallowed")
		}
		if err := d.RemoveTarget(p, "inst0"); err != nil {
			t.Fatal(err)
		}
		if !tgt.(*fakeTarget).stopped {
			t.Fatal("Stop not called on removal")
		}
		if err := d.RemoveTarget(p, "inst0"); err == nil {
			t.Fatal("double remove accepted")
		}
	})
	env.Run()
}

func TestConcurrentCreateSameName(t *testing.T) {
	// Two simultaneous creates of one instance name, both yielding during
	// construction: exactly one may win; the loser must fail the duplicate
	// check instead of silently replacing the winner in the registry.
	env, d := newDevice(t)
	var targets []Target
	var errs []error
	for i := 0; i < 2; i++ {
		env.Go("creator", func(p *sim.Proc) {
			tgt, err := d.CreateTarget(p, "slowfake", "inst0", PURange{}, nil)
			if err != nil {
				errs = append(errs, err)
				return
			}
			targets = append(targets, tgt)
		})
	}
	env.Run()
	if len(targets) != 1 || len(errs) != 1 {
		t.Fatalf("wins=%d errs=%d, want exactly one of each", len(targets), len(errs))
	}
	if got := d.Targets(); len(got) != 1 || got[0] != "inst0" {
		t.Fatalf("targets = %v", got)
	}
	env.Go("check", func(p *sim.Proc) {
		if err := d.RemoveTarget(p, "inst0"); err != nil {
			t.Errorf("remove winner: %v", err)
		}
	})
	env.Run()
	if !targets[0].(*fakeTarget).stopped {
		t.Fatal("winner not stopped on removal")
	}
}

func TestCreateFailureReleasesReservation(t *testing.T) {
	env, d := newDevice(t)
	env.Go("main", func(p *sim.Proc) {
		if _, err := d.CreateTarget(p, "slowfake", "inst0", PURange{}, "fail"); err == nil {
			t.Error("factory error swallowed")
		}
		if got := d.Targets(); len(got) != 0 {
			t.Errorf("failed create left registry entry: %v", got)
		}
		// The name must be reusable after the failed create.
		if _, err := d.CreateTarget(p, "slowfake", "inst0", PURange{}, nil); err != nil {
			t.Errorf("recreate after failure: %v", err)
		}
	})
	env.Run()
}

func TestRemoveDuringCreateRejected(t *testing.T) {
	env, d := newDevice(t)
	created := env.NewEvent()
	env.Go("creator", func(p *sim.Proc) {
		if _, err := d.CreateTarget(p, "slowfake", "inst0", PURange{}, nil); err != nil {
			t.Errorf("create: %v", err)
		}
		created.Signal()
	})
	env.Go("remover", func(p *sim.Proc) {
		// Runs while the creator is still inside construction.
		if err := d.RemoveTarget(p, "inst0"); err == nil {
			t.Error("remove of a half-created target accepted")
		}
		p.Wait(created)
		if err := d.RemoveTarget(p, "inst0"); err != nil {
			t.Errorf("remove after creation: %v", err)
		}
	})
	env.Run()
}

func TestPartitionedCreateAndOverlap(t *testing.T) {
	env, d := newDevice(t) // 4 PUs total
	env.Go("main", func(p *sim.Proc) {
		a, err := d.CreateTarget(p, "fake", "a", PURange{0, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := d.TargetRange("a"); !ok || r != (PURange{0, 2}) {
			t.Fatalf("TargetRange(a) = %v,%v", r, ok)
		}
		// Any overlap with a's range must be rejected.
		for _, r := range []PURange{{0, 1}, {1, 3}, {0, 4}, {}} {
			if _, err := d.CreateTarget(p, "fake", "b", r, nil); err == nil {
				t.Fatalf("overlapping range %v accepted", r)
			}
		}
		// Invalid ranges are rejected outright.
		for _, r := range []PURange{{-1, 2}, {2, 2}, {3, 2}, {2, 5}} {
			if _, err := d.CreateTarget(p, "fake", "b", r, nil); err == nil {
				t.Fatalf("invalid range %v accepted", r)
			}
		}
		// The disjoint remainder works, and both coexist.
		b, err := d.CreateTarget(p, "fake", "b", PURange{2, 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Targets(); len(got) != 2 {
			t.Fatalf("targets = %v", got)
		}
		av, bv := a.(*fakeTarget).view, b.(*fakeTarget).view
		if av.PUs() != 2 || av.GlobalPU(1) != 1 || bv.PUs() != 2 || bv.GlobalPU(0) != 2 {
			t.Fatalf("view translation wrong: a=%v b=%v", av.Range(), bv.Range())
		}
		// Removing a releases its PUs for a new tenant.
		if err := d.RemoveTarget(p, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.CreateTarget(p, "c", "c", PURange{0, 2}, nil); err == nil {
			t.Fatal("unknown type accepted")
		}
		if _, err := d.CreateTarget(p, "fake", "c", PURange{0, 2}, nil); err != nil {
			t.Fatalf("range not released on remove: %v", err)
		}
	})
	env.Run()
}

func TestPartitionTablePersistsAcrossRestart(t *testing.T) {
	env, d := newDevice(t)
	env.Go("main", func(p *sim.Proc) {
		if _, err := d.CreateTarget(p, "fake", "a", PURange{1, 3}, nil); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveTarget(p, "a"); err != nil {
			t.Fatal(err)
		}
		// Re-creating "a" with a zero range restores its recorded
		// partition instead of claiming the whole device.
		a2, err := d.CreateTarget(p, "fake", "a", PURange{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r := a2.(*fakeTarget).view.Range(); r != (PURange{1, 3}) {
			t.Fatalf("restarted target got range %v, want [1,3)", r)
		}
		// The rest of the device is still free for others.
		if _, err := d.CreateTarget(p, "fake", "b", PURange{0, 1}, nil); err != nil {
			t.Fatal(err)
		}
		parts := d.Partitions()
		if len(parts) != 2 || parts[0].Name != "b" || parts[1].Name != "a" || !parts[1].Active {
			t.Fatalf("partition table = %+v", parts)
		}
		// An explicit new range overrides and re-records.
		if err := d.RemoveTarget(p, "a"); err != nil {
			t.Fatal(err)
		}
		a3, err := d.CreateTarget(p, "fake", "a", PURange{3, 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r := a3.(*fakeTarget).view.Range(); r != (PURange{3, 4}) {
			t.Fatalf("explicit re-range got %v", r)
		}
	})
	env.Run()
}

func TestCreateFailureReleasesPUs(t *testing.T) {
	env, d := newDevice(t)
	env.Go("main", func(p *sim.Proc) {
		if _, err := d.CreateTarget(p, "slowfake", "a", PURange{0, 2}, "fail"); err == nil {
			t.Fatal("factory error swallowed")
		}
		// The failed create must not leave PUs owned or a partition record
		// that would shrink an unrelated target's zero-range create.
		if _, err := d.CreateTarget(p, "fake", "b", PURange{0, 2}, nil); err != nil {
			t.Fatalf("PUs not released after failed create: %v", err)
		}
	})
	env.Run()
}

func TestMediaViewSubmitRejectsOutOfPartition(t *testing.T) {
	env, d := newDevice(t)
	env.Go("main", func(p *sim.Proc) {
		v, err := d.View("a", PURange{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		// PU 2 lives at ch 1, pu 0 on this 2x2 device: outside the view.
		ch, pu := d.Raw().Format().PUAddr(2)
		bad := ppa.Addr{Ch: ch, PU: pu}
		c := v.Do(p, &ocssd.Vector{Op: ocssd.OpRead, Addrs: []ppa.Addr{bad}})
		if !c.Failed() || !errors.Is(c.Errs[0], ErrOutOfPartition) {
			t.Fatalf("out-of-partition read: %+v", c.Errs)
		}
		// Submit shares the check but completes through the event queue.
		var async *ocssd.Completion
		v.Submit(&ocssd.Vector{Op: ocssd.OpRead, Addrs: []ppa.Addr{bad}}, func(c *ocssd.Completion) { async = c })
		p.Yield()
		if async == nil || !errors.Is(async.FirstErr(), ErrOutOfPartition) {
			t.Fatalf("out-of-partition Submit completed with %+v", async)
		}
		if !v.Contains(ppa.Addr{}) || v.Contains(bad) {
			t.Fatal("Contains wrong")
		}
		// In-partition I/O passes through.
		good := v.Do(p, &ocssd.Vector{Op: ocssd.OpErase, Addrs: []ppa.Addr{{}}})
		if good.Failed() {
			t.Fatalf("in-partition erase failed: %v", good.FirstErr())
		}
		if v.RelativePU(v.GlobalPU(1)) != 1 {
			t.Fatal("PU translation not inverse")
		}
		if v.Die(0) != d.Raw().Die(0) {
			t.Fatal("Die translation wrong")
		}
	})
	env.Run()
}

func TestOwnerGuardPanicsOnForeignSubmit(t *testing.T) {
	env, d := newDevice(t)
	d.EnableOwnerGuard()
	env.Go("main", func(p *sim.Proc) {
		if _, err := d.CreateTarget(p, "fake", "a", PURange{0, 2}, nil); err != nil {
			t.Fatal(err)
		}
		// A raw (untagged) submit onto a guarded PU must fail loudly.
		defer func() {
			if recover() == nil {
				t.Error("foreign submit on guarded PU did not panic")
			}
		}()
		d.Raw().Do(p, &ocssd.Vector{Op: ocssd.OpRead, Addrs: []ppa.Addr{{}}})
	})
	env.Run()
}

func TestOwnerGuardClearedOnRemove(t *testing.T) {
	env, d := newDevice(t)
	d.EnableOwnerGuard()
	env.Go("main", func(p *sim.Proc) {
		if _, err := d.CreateTarget(p, "fake", "a", PURange{0, 2}, nil); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveTarget(p, "a"); err != nil {
			t.Fatal(err)
		}
		// After removal the PUs are unguarded again.
		c := d.Raw().Do(p, &ocssd.Vector{Op: ocssd.OpRead, Addrs: []ppa.Addr{{}}})
		_ = c
	})
	env.Run()
}

// slowStopTarget yields inside Stop, like pblk draining GC and lane
// writers with real device I/O.
type slowStopTarget struct {
	name    string
	stopped bool
}

func (f *slowStopTarget) TargetName() string { return f.name }
func (f *slowStopTarget) Stop(p *sim.Proc) error {
	p.Sleep(time.Millisecond)
	f.stopped = true
	return nil
}

func init() {
	RegisterTargetType("slowstop", func(p *sim.Proc, view *MediaView, name string, cfg any) (Target, error) {
		return &slowStopTarget{name: name}, nil
	})
}

func TestRemoveHoldsPUsUntilStopCompletes(t *testing.T) {
	// RemoveTarget drops the name immediately but must keep the PU range
	// reserved while Stop is still quiescing the target (it performs
	// device I/O): a new tenant taking the range mid-Stop would let two
	// FTLs program the same blocks.
	env, d := newDevice(t)
	var tgt Target
	env.Go("setup", func(p *sim.Proc) {
		var err error
		tgt, err = d.CreateTarget(p, "slowstop", "old", PURange{0, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	env.Run()
	removed := env.NewEvent()
	env.Go("remover", func(p *sim.Proc) {
		if err := d.RemoveTarget(p, "old"); err != nil {
			t.Errorf("remove: %v", err)
		}
		removed.Signal()
	})
	env.Go("newcomer", func(p *sim.Proc) {
		// Interleaves while "old" is still inside Stop: the range must be
		// refused until Stop returns.
		if _, err := d.CreateTarget(p, "fake", "new", PURange{0, 2}, nil); err == nil {
			if !tgt.(*slowStopTarget).stopped {
				t.Error("range handed to a new tenant while the old target was still stopping")
			}
			return
		}
		p.Wait(removed)
		if !tgt.(*slowStopTarget).stopped {
			t.Error("RemoveTarget returned before Stop completed")
		}
		if _, err := d.CreateTarget(p, "fake", "new", PURange{0, 2}, nil); err != nil {
			t.Errorf("range not released after Stop: %v", err)
		}
	})
	env.Run()
}

func TestViewRejectsReservedPUs(t *testing.T) {
	// An untracked View (e.g. a direct full-device pblk.New) must not be
	// able to span a live tenant's PUs: its recovery scan would reclaim
	// the tenant's blocks as foreign metadata.
	env, d := newDevice(t)
	env.Go("main", func(p *sim.Proc) {
		if _, err := d.CreateTarget(p, "fake", "a", PURange{0, 2}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := d.View("x", PURange{}); err == nil {
			t.Error("full-device view granted over a live tenant's PUs")
		}
		if _, err := d.View("x", PURange{1, 3}); err == nil {
			t.Error("overlapping view granted")
		}
		if _, err := d.View("x", PURange{2, 4}); err != nil {
			t.Errorf("disjoint view refused: %v", err)
		}
		if err := d.RemoveTarget(p, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.View("x", PURange{}); err != nil {
			t.Errorf("full-device view refused after removal: %v", err)
		}
	})
	env.Run()
}
