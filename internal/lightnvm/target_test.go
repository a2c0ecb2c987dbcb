package lightnvm_test

import (
	"testing"

	"repro/internal/lightnvm"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// tenantDevice is a 2 × 2 PU device with healthy media, so a pblk target
// that submits onto a PU it does not hold sees the view's rejection as a
// media error (stop checks for them).
func tenantDevice(t *testing.T) (*sim.Env, *lightnvm.Device) {
	t.Helper()
	env := sim.NewEnv(1)
	cfg := ocssd.DefaultConfig(ppa.Geometry{
		Channels: 2, PUsPerChannel: 2, PlanesPerPU: 2,
		BlocksPerPlane: 40, PagesPerBlock: 32,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	})
	cfg.Seed = 5
	dev, err := ocssd.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, lightnvm.Register("nvme0n1", dev)
}

var half = lightnvm.PURange{Begin: 0, End: 2}

// mountPblk reserves r and mounts a pblk target on it, with buffered
// writes so that stopping it performs device I/O.
func mountPblk(p *sim.Proc, ln *lightnvm.Device, name string, r lightnvm.PURange) (*pblk.Pblk, error) {
	v, err := ln.Reserve(name, r)
	if err != nil {
		return nil, err
	}
	k, err := pblk.NewView(p, v, pblk.Config{ActivePUs: 2, OverProvision: 0.3})
	if err != nil {
		return nil, err
	}
	return k, k.Write(p, 0, nil, 64<<10)
}

// stop stops k, then fails the test on any write or erase error it saw:
// on healthy media, each is a command its view rejected.
func stop(t *testing.T, p *sim.Proc, k *pblk.Pblk) {
	t.Helper()
	if err := k.Stop(p); err != nil {
		t.Fatal(err)
	}
	noMediaErrors(t, k)
}

func noMediaErrors(t *testing.T, k *pblk.Pblk) {
	t.Helper()
	if st := k.Stats; st.WriteErrors != 0 || st.GCWriteErrors != 0 || st.EraseErrors != 0 {
		t.Errorf("%s: %d write errors (%d in GC), %d erase errors on healthy media",
			k.MediaView().Name(), st.WriteErrors, st.GCWriteErrors, st.EraseErrors)
	}
}

// Every way a target ends gives its range back at once: a new target
// mounts on it in the same instant.
func TestReleaseRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(t *testing.T, p *sim.Proc, ln *lightnvm.Device)
	}{
		{"pblk/Stop", func(t *testing.T, p *sim.Proc, ln *lightnvm.Device) {
			k, err := mountPblk(p, ln, "old", half)
			if err != nil {
				t.Fatal(err)
			}
			stop(t, p, k)
		}},
		{"pblk/Shutdown", func(t *testing.T, p *sim.Proc, ln *lightnvm.Device) {
			k, err := mountPblk(p, ln, "old", half)
			if err == nil {
				err = k.Shutdown(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			noMediaErrors(t, k)
		}},
		{"pblk/Crash", func(t *testing.T, p *sim.Proc, ln *lightnvm.Device) {
			k, err := mountPblk(p, ln, "old", half)
			if err != nil {
				t.Fatal(err)
			}
			k.Crash()
			noMediaErrors(t, k)
		}},
		{"raw/Stop", func(t *testing.T, p *sim.Proc, ln *lightnvm.Device) {
			v, err := ln.Reserve("old", half)
			if err != nil {
				t.Fatal(err)
			}
			lightnvm.NewRaw(v).Stop()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, ln := tenantDevice(t)
			env.Go("main", func(p *sim.Proc) {
				tc.end(t, p, ln)
				k, err := mountPblk(p, ln, "next", half)
				if err != nil {
					t.Fatalf("range not released: %v", err)
				}
				stop(t, p, k)
				if _, err := ln.Reserve("old", lightnvm.PURange{}); err != nil {
					t.Errorf("device not free after both targets ended: %v", err)
				}
			})
			env.Run()
		})
	}
}

func TestRemoveHoldsPUsUntilStopCompletes(t *testing.T) {
	// Stop performs device I/O (the flush of buffered writes), so it
	// yields; the range must stay reserved until it returns, or a new
	// tenant would program the same blocks as the stopping target.
	env, ln := tenantDevice(t)
	var k *pblk.Pblk
	env.Go("setup", func(p *sim.Proc) {
		var err error
		if k, err = mountPblk(p, ln, "old", half); err != nil {
			t.Fatal(err)
		}
	})
	env.Run()
	stopped := env.NewEvent()
	env.Go("stopper", func(p *sim.Proc) {
		if err := k.Stop(p); err != nil {
			t.Error(err)
		}
		noMediaErrors(t, k)
		stopped.Signal()
	})
	env.Go("newcomer", func(p *sim.Proc) {
		if _, err := ln.Reserve("new", half); err == nil {
			t.Error("range handed to a new tenant while the old target was still stopping")
		}
		p.Wait(stopped)
		if _, err := ln.Reserve("new", half); err != nil {
			t.Errorf("range not released after Stop: %v", err)
		}
	})
	env.Run()
}

// A full-device pblk holds every PU: no second pblk, raw target or
// partitioned pblk mounts beside it.
func TestNoTargetBesideAFullDevicePblk(t *testing.T) {
	env, ln := tenantDevice(t)
	env.Go("main", func(p *sim.Proc) {
		k, err := pblk.New(p, ln, "pblk0", pblk.Config{ActivePUs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pblk.New(p, ln, "pblk1", pblk.Config{ActivePUs: 4}); err == nil {
			t.Error("a second pblk.New mounted over a live one")
		}
		if _, err := ln.Reserve("intruder", lightnvm.PURange{Begin: 0, End: 4}); err == nil {
			t.Error("a raw target's range was reserved over a live pblk.New")
		}
		if _, err := mountPblk(p, ln, "tenant", lightnvm.PURange{Begin: 2, End: 4}); err == nil {
			t.Error("a partitioned pblk mounted over a live pblk.New")
		}
		stop(t, p, k)
	})
	env.Run()
}
