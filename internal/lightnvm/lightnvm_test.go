package lightnvm

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/nand"
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
	_, d, _ := newDevice(t)
	if d.Name() != "nvme0n1" {
		t.Fatal("name")
	}
	if d.Geometry().Channels != 2 {
		t.Fatal("geometry not exposed")
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
	if a.PUs() != 2 || b.PUs() != 2 || b.Range().Begin != 2 {
		t.Fatalf("view ranges wrong: a=%v b=%v", a.Range(), b.Range())
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
		// Target PU 2 (ch 1, pu 0 on this 2x2 device) is past the view's two.
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
		// In-partition I/O passes through.
		good := v.Do(p, &ocssd.Vector{Op: ocssd.OpErase, Addrs: []ppa.Addr{{}}})
		if good.Failed() {
			t.Fatalf("in-partition erase failed: %v", good.FirstErr())
		}
		if v.Die(0) != dev.Die(0) {
			t.Fatal("Die translation wrong")
		}
	})
	env.Run()
}

// TestMediaViewTranslatesAtSubmit pins the view's address contract on a
// partition that starts past PU 0 and straddles the channels: a target
// addresses PUs 0..PUs()-1, its I/O lands on device PU Range().Begin + that
// index, the vector it submitted holds its own addresses again once Submit
// or Do returns and when the completion runs, and an address past the
// partition, or with a PU field that would alias the next channel, fails
// with ErrOutOfPartition.
func TestMediaViewTranslatesAtSubmit(t *testing.T) {
	env, d, dev := newDevice(t)
	f := dev.Format()
	v, err := d.Reserve("a", PURange{1, 4}) // ch 0 pu 1, ch 1 pu 0, ch 1 pu 1
	if err != nil {
		t.Fatal(err)
	}
	for rel := 0; rel < v.PUs(); rel++ {
		if v.Die(rel) != dev.Die(1+rel) {
			t.Fatalf("Die(%d) is not device die %d", rel, 1+rel)
		}
	}
	// One page on plane 0 of block 0 of every PU of the view, each sector
	// carrying its target PU index.
	var in []ppa.Addr
	var data [][]byte
	for rel := 0; rel < v.PUs(); rel++ {
		ch, pu := f.PUAddr(rel)
		for s := 0; s < 4; s++ {
			in = append(in, ppa.Addr{Ch: ch, PU: pu, Sector: s})
			data = append(data, bytes.Repeat([]byte{byte(1 + rel)}, 4096))
		}
	}
	env.Go("main", func(p *sim.Proc) {
		write := &ocssd.Vector{Op: ocssd.OpWrite, Addrs: slices.Clone(in), Data: data}
		done := env.NewEvent()
		v.Submit(write, func(c *ocssd.Completion) {
			if c.Failed() {
				t.Errorf("write through the view: %v", c.FirstErr())
			}
			if !slices.Equal(write.Addrs, in) {
				t.Errorf("addresses at completion %v, want %v", write.Addrs, in)
			}
			done.Signal()
		})
		if !slices.Equal(write.Addrs, in) {
			t.Errorf("addresses after Submit %v, want %v", write.Addrs, in)
		}
		p.Wait(done)
		for rel := 0; rel < v.PUs(); rel++ {
			got, _, err := dev.Die(1+rel).Read(0, 0, 0)
			if err != nil || len(got) == 0 || got[0] != byte(1+rel) {
				t.Errorf("device die %d does not hold target PU %d's page (err %v)", 1+rel, rel, err)
			}
		}
		if _, _, err := dev.Die(0).Read(0, 0, 0); !errors.Is(err, nand.ErrUnwritten) {
			t.Errorf("device die 0, outside the view, was written (%v)", err)
		}
		read := &ocssd.Vector{Op: ocssd.OpRead, Addrs: slices.Clone(in)}
		c := v.Do(p, read)
		for i := range in {
			if c.Errs[i] != nil || len(c.Data[i]) == 0 || c.Data[i][0] != data[i][0] {
				t.Fatalf("read of %v through the view: %v", in[i], c.Errs[i])
			}
		}
		if !slices.Equal(read.Addrs, in) {
			t.Errorf("addresses after Do %v, want %v", read.Addrs, in)
		}
		// Each bad address rides behind a good one, which must come back
		// in target form: a rejected command restores what it translated.
		for _, bad := range []ppa.Addr{
			{Ch: 1, PU: 1},  // target PU 3 of 3
			{Ch: 0, PU: 2},  // PU field past the channel: aliases target PU 2
			{Ch: 2, PU: -1}, // negative PU field: aliases target PU 3
		} {
			addrs := []ppa.Addr{in[0], bad}
			c := v.Do(p, &ocssd.Vector{Op: ocssd.OpRead, Addrs: addrs})
			if !errors.Is(c.Errs[0], ErrOutOfPartition) || !errors.Is(c.Errs[1], ErrOutOfPartition) {
				t.Errorf("%v: read completed with %v, want ErrOutOfPartition", bad, c.Errs)
			}
			if addrs[0] != in[0] || addrs[1] != bad {
				t.Errorf("%v: rejected command left addresses %v", bad, addrs)
			}
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
