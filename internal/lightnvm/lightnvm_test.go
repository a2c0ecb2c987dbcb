package lightnvm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// newDevice registers a 2 × 2 PU device; the raw device is returned too,
// for tests that look behind the views.
func newDevice(t *testing.T) (*sim.Env, *Device, *ocssd.Device) {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := ocssd.DefaultConfig(ppa.Geometry{
		Channels: 2, PUsPerChannel: 2, PlanesPerPU: 2,
		BlocksPerPlane: 4, PagesPerBlock: 8,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	})
	cfg.PageCache = false
	cfg.Seed = 1
	dev, err := ocssd.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, Register("nvme0n1", dev), dev
}

// mount follows a target constructor's contract on a reservation: reserve,
// construct with device I/O that yields (here a sleep, like pblk's
// recovery scan), and release the view when construction fails.
func mount(p *sim.Proc, d *Device, name string, r PURange, fail bool) (*MediaView, error) {
	v, err := d.Reserve(name, r)
	if err != nil {
		return nil, err
	}
	p.Sleep(time.Millisecond)
	if fail {
		v.Release()
		return nil, errors.New("construction failed")
	}
	return v, nil
}

func TestGeometryExposed(t *testing.T) {
	_, d, dev := newDevice(t)
	if d.Name() != "nvme0n1" {
		t.Fatal("name")
	}
	if d.Geometry().Channels != 2 {
		t.Fatal("geometry not exposed")
	}
	if d.Identify().MaxVectorLen != ocssd.MaxVectorLen {
		t.Fatal("identify not exposed")
	}
	if d.Env() != dev.Env() {
		t.Fatal("env not exposed")
	}
}

// A reservation holds its name until released, Release is idempotent, and
// a stale view's Release leaves a newer reservation alone.
func TestTargetLifecycle(t *testing.T) {
	_, d, _ := newDevice(t)
	v, err := d.Reserve("inst0", PURange{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Name() != "inst0" {
		t.Fatalf("view name %q", v.Name())
	}
	if _, err := d.Reserve("inst0", PURange{2, 3}); err == nil {
		t.Fatal("a live name reserved twice")
	}
	v.Release()
	v.Release()
	v2, err := d.Reserve("inst0", PURange{})
	if err != nil {
		t.Fatalf("name not released: %v", err)
	}
	if v2.Range() != (PURange{0, 4}) {
		t.Fatalf("zero range reserved %v, want the whole device", v2.Range())
	}
	v.Release()
	if _, err := d.Reserve("x", PURange{0, 1}); err == nil {
		t.Fatal("a stale Release freed a newer reservation")
	}
	v2.Release()
}

func TestConcurrentCreateSameName(t *testing.T) {
	// Two simultaneous mounts of one name, both yielding during
	// construction: exactly one may win, because the reservation is taken
	// before the constructor yields.
	env, d, _ := newDevice(t)
	var views []*MediaView
	var errs []error
	for i := 0; i < 2; i++ {
		env.Go("creator", func(p *sim.Proc) {
			v, err := mount(p, d, "inst0", PURange{2 * i, 2*i + 2}, false)
			if err != nil {
				errs = append(errs, err)
				return
			}
			views = append(views, v)
		})
	}
	env.Run()
	if len(views) != 1 || len(errs) != 1 {
		t.Fatalf("wins=%d errs=%d, want exactly one of each", len(views), len(errs))
	}
	views[0].Release()
	if _, err := d.Reserve("inst0", PURange{}); err != nil {
		t.Fatalf("winner's release: %v", err)
	}
}

func TestCreateFailureReleasesReservation(t *testing.T) {
	env, d, _ := newDevice(t)
	env.Go("main", func(p *sim.Proc) {
		if _, err := mount(p, d, "inst0", PURange{}, true); err == nil {
			t.Error("construction error swallowed")
		}
		// The name must be reusable after the failed mount.
		if _, err := mount(p, d, "inst0", PURange{}, false); err != nil {
			t.Errorf("remount after failure: %v", err)
		}
	})
	env.Run()
}

func TestPartitionedCreateAndOverlap(t *testing.T) {
	_, d, _ := newDevice(t) // 4 PUs total
	a, err := d.Reserve("a", PURange{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Any overlap with a's range must be rejected.
	for _, r := range []PURange{{0, 1}, {1, 3}, {0, 4}, {}} {
		if _, err := d.Reserve("b", r); err == nil {
			t.Fatalf("overlapping range %v accepted", r)
		}
	}
	// Invalid ranges are rejected outright.
	for _, r := range []PURange{{-1, 2}, {2, 2}, {3, 2}, {2, 5}} {
		if _, err := d.Reserve("b", r); err == nil {
			t.Fatalf("invalid range %v accepted", r)
		}
	}
	// The disjoint remainder works, and both coexist.
	b, err := d.Reserve("b", PURange{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.PUs() != 2 || a.GlobalPU(1) != 1 || b.PUs() != 2 || b.GlobalPU(0) != 2 {
		t.Fatalf("view translation wrong: a=%v b=%v", a.Range(), b.Range())
	}
	// Releasing a frees its PUs for a new tenant.
	a.Release()
	if _, err := d.Reserve("c", PURange{0, 2}); err != nil {
		t.Fatalf("range not released: %v", err)
	}
}

func TestCreateFailureReleasesPUs(t *testing.T) {
	env, d, _ := newDevice(t)
	env.Go("main", func(p *sim.Proc) {
		if _, err := mount(p, d, "a", PURange{0, 2}, true); err == nil {
			t.Fatal("construction error swallowed")
		}
		if _, err := mount(p, d, "b", PURange{0, 2}, false); err != nil {
			t.Fatalf("PUs not released after failed mount: %v", err)
		}
	})
	env.Run()
}

// Power loss takes the host state that held a reservation with it, so a
// crashed view's range and name are free at once, for a partition and for
// the whole device alike.
func TestCrashReleasesView(t *testing.T) {
	_, d, _ := newDevice(t)
	for _, r := range []PURange{{1, 3}, {}} {
		v, err := d.Reserve("a", r)
		if err != nil {
			t.Fatal(err)
		}
		v.Crash()
		v2, err := d.Reserve("a", r)
		if err != nil {
			t.Fatalf("range %v not released by Crash: %v", r, err)
		}
		v2.Release()
	}
}

func TestMediaViewSubmitRejectsOutOfPartition(t *testing.T) {
	env, d, dev := newDevice(t)
	env.Go("main", func(p *sim.Proc) {
		v, err := d.Reserve("a", PURange{0, 2})
		if err != nil {
			t.Fatal(err)
		}
		// PU 2 lives at ch 1, pu 0 on this 2x2 device: outside the view.
		ch, pu := dev.Format().PUAddr(2)
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
		if v.Die(0) != dev.Die(0) {
			t.Fatal("Die translation wrong")
		}
	})
	env.Run()
}

func TestViewRejectsReservedPUs(t *testing.T) {
	// A full-device reservation (what pblk.New asks for) must not span a
	// live tenant's PUs: its recovery scan would reclaim the tenant's
	// blocks as foreign metadata.
	_, d, _ := newDevice(t)
	a, err := d.Reserve("a", PURange{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reserve("x", PURange{}); err == nil {
		t.Error("full-device view granted over a live tenant's PUs")
	}
	if _, err := d.Reserve("x", PURange{1, 3}); err == nil {
		t.Error("overlapping view granted")
	}
	x, err := d.Reserve("x", PURange{2, 4})
	if err != nil {
		t.Errorf("disjoint view refused: %v", err)
	}
	a.Release()
	x.Release()
	if _, err := d.Reserve("x", PURange{}); err != nil {
		t.Errorf("full-device view refused after release: %v", err)
	}
}
