package pblk

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/lightnvm"
	"repro/internal/sim"
)

// tenantConfig is the pblk tuning used by the partitioned-target tests:
// the small test geometry leaves each 2-PU partition only ~40 groups, so
// over-provisioning must be thick enough to cover the ring backlog
// reserve.
func tenantConfig() Config {
	return Config{ActivePUs: 2, OverProvision: 0.3}
}

// mountTenant reserves a PU range through the media manager and mounts a
// pblk target on it.
func mountTenant(p *sim.Proc, ln *lightnvm.Device, name string, r lightnvm.PURange, cfg Config) (*Pblk, error) {
	v, err := ln.Reserve(name, r)
	if err != nil {
		return nil, err
	}
	return NewView(p, v, cfg)
}

// createTenant is mountTenant that must succeed, asserting the partition
// geometry took hold.
func createTenant(t *testing.T, p *sim.Proc, ln *lightnvm.Device, name string, r lightnvm.PURange, cfg Config) *Pblk {
	t.Helper()
	k, err := mountTenant(p, ln, name, r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k.Partition() != r {
		t.Fatalf("%s: partition = %v, want %v", name, k.Partition(), r)
	}
	if k.nPUs != r.Width() {
		t.Fatalf("%s: nPUs = %d, want %d", name, k.nPUs, r.Width())
	}
	return k
}

// assertConfined checks every media mapping of k's L2P points into its own
// partition — the core disjointness property of partitioned targets.
func assertConfined(t *testing.T, k *Pblk) {
	t.Helper()
	r := k.Partition()
	for lba, v := range k.l2p {
		if !isMedia(v) {
			continue
		}
		gpu := k.fmtr.GlobalPU(k.mediaAddr(v))
		if gpu < r.Begin || gpu >= r.End {
			t.Fatalf("%s: lba %d mapped to global PU %d outside %v", k.name, lba, gpu, r)
		}
	}
}

// TestTwoTenantsConcurrentIO mounts two pblk targets on disjoint halves of
// one device — with the per-PU owner guard armed, so any command crossing
// a partition boundary panics — and runs interleaved write/flush/read/trim
// traffic with enough overwrite volume to cycle GC on both. Each tenant
// must keep its own data intact and its mappings confined to its PUs.
func TestTwoTenantsConcurrentIO(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.lnvm.EnableOwnerGuard()
	type tenant struct {
		k      *Pblk
		shadow map[int64]byte
		done   bool
	}
	tenants := make([]*tenant, 2)
	ranges := []lightnvm.PURange{{Begin: 0, End: 2}, {Begin: 2, End: 4}}
	for i := range tenants {
		i := i
		e.sim.Go(fmt.Sprintf("tenant%d", i), func(p *sim.Proc) {
			tn := &tenant{shadow: make(map[int64]byte)}
			tenants[i] = tn
			tn.k = createTenant(t, p, e.lnvm, fmt.Sprintf("pblk%d", i), ranges[i], tenantConfig())
			k := tn.k
			ss := int64(4096)
			lbas := k.Capacity() / ss
			rng := e.sim.Rand()
			// ~3x the exported capacity in overwrites drives GC through
			// several full cycles per tenant.
			for op := int64(0); op < 3*lbas; op++ {
				lba := rng.Int63n(lbas)
				switch op % 97 {
				case 13:
					if err := k.Flush(p); err != nil {
						t.Errorf("tenant %d: flush: %v", i, err)
						return
					}
				case 29:
					if err := k.Trim(p, lba*ss, ss); err != nil {
						t.Errorf("tenant %d: trim: %v", i, err)
						return
					}
					delete(tn.shadow, lba)
				default:
					gen := byte(rng.Intn(250) + 1)
					if err := k.Write(p, lba*ss, fill(int(ss), gen), ss); err != nil {
						t.Errorf("tenant %d: write: %v", i, err)
						return
					}
					tn.shadow[lba] = gen
				}
			}
			if err := k.Flush(p); err != nil {
				t.Errorf("tenant %d: final flush: %v", i, err)
				return
			}
			got := make([]byte, ss)
			for lba, gen := range tn.shadow {
				if err := k.Read(p, lba*ss, got, ss); err != nil {
					t.Errorf("tenant %d: lba %d: %v", i, lba, err)
					return
				}
				if !bytes.Equal(got, fill(int(ss), gen)) {
					t.Errorf("tenant %d: lba %d: content mismatch", i, lba)
					return
				}
			}
			tn.done = true
		})
	}
	e.sim.Run()
	for i, tn := range tenants {
		if tn == nil || !tn.done {
			t.Fatalf("tenant %d did not finish", i)
		}
		if tn.k.Stats.GCBlocksRecycled == 0 {
			t.Errorf("tenant %d: GC never ran; overwrite volume too low for the test's point", i)
		}
		if err := tn.k.CheckInvariants(); err != nil {
			t.Errorf("tenant %d: %v", i, err)
		}
		assertConfined(t, tn.k)
	}
	// Tenant capacities split the device: each sees only its partition.
	if tenants[0].k.Capacity() >= tenants[0].k.Device().Geometry().TotalBytes()/2 {
		t.Error("partitioned tenant capacity not confined to its PU range")
	}
	e.sim.Go("teardown", func(p *sim.Proc) {
		for _, tn := range tenants {
			if err := tn.k.Stop(p); err != nil {
				t.Error(err)
			}
		}
	})
	e.sim.Run()
}

// TestTenantShutdownSnapshotIndependent gives each partition its own
// snapshot area: one tenant shuts down gracefully (snapshot), its sibling
// crashes (scan recovery), and both recover their data independently
// after a remount on their old ranges.
func TestTenantShutdownSnapshotIndependent(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.lnvm.EnableOwnerGuard()
	ss := int64(4096)
	data := map[string]map[int64]byte{"pblk0": {}, "pblk1": {}}
	ranges := map[string]lightnvm.PURange{
		"pblk0": {Begin: 0, End: 2},
		"pblk1": {Begin: 2, End: 4},
	}
	e.sim.Go("setup", func(p *sim.Proc) {
		var ks []*Pblk
		for _, name := range []string{"pblk0", "pblk1"} {
			k := createTenant(t, p, e.lnvm, name, ranges[name], tenantConfig())
			rng := e.sim.Rand()
			for i := 0; i < 200; i++ {
				lba := rng.Int63n(k.Capacity() / ss)
				gen := byte(rng.Intn(250) + 1)
				if err := k.Write(p, lba*ss, fill(int(ss), gen), ss); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				data[name][lba] = gen
			}
			if err := k.Flush(p); err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
		// pblk0 powers down gracefully; pblk1 loses power.
		if err := ks[0].Shutdown(p); err != nil {
			t.Fatal(err)
		}
		ks[1].Crash()
	})
	e.sim.Run()

	e.sim.Go("verify", func(p *sim.Proc) {
		// Shutdown and Crash both released their ranges, so each remounts
		// at once.
		for _, name := range []string{"pblk0", "pblk1"} {
			k := createTenant(t, p, e.lnvm, name, ranges[name], tenantConfig())
			wantSnap := int64(0)
			if name == "pblk0" {
				wantSnap = 1
			}
			if k.Stats.SnapshotLoads != wantSnap {
				t.Errorf("%s: SnapshotLoads = %d, want %d", name, k.Stats.SnapshotLoads, wantSnap)
			}
			got := make([]byte, ss)
			for lba, gen := range data[name] {
				if err := k.Read(p, lba*ss, got, ss); err != nil {
					t.Fatalf("%s: lba %d: %v", name, lba, err)
				}
				if !bytes.Equal(got, fill(int(ss), gen)) {
					t.Fatalf("%s: lba %d: mismatch after remount", name, lba)
				}
			}
			assertConfined(t, k)
			if err := k.Stop(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	e.sim.Run()
}

// TestPartitionActivePUValidation pins the config rules in partition
// terms: ActivePUs must divide the partition's PU count, not the
// device's.
func TestPartitionActivePUValidation(t *testing.T) {
	e := newEnv(t, testDeviceConfig())
	e.run(func(p *sim.Proc) {
		cfg := tenantConfig()
		cfg.ActivePUs = 4 // device has 4, but the partition only 2
		if _, err := mountTenant(p, e.lnvm, "t", lightnvm.PURange{Begin: 0, End: 2}, cfg); err == nil {
			t.Fatal("ActivePUs beyond the partition accepted")
		}
		// The failed mount released its reservation: the same name and
		// range mount at once.
		cfg.ActivePUs = 1
		k, err := mountTenant(p, e.lnvm, "t", lightnvm.PURange{Begin: 0, End: 2}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetActivePUs(p, 4); err == nil {
			t.Fatal("SetActivePUs beyond the partition accepted")
		}
		if err := k.SetActivePUs(p, 2); err != nil {
			t.Fatal(err)
		}
		if err := k.Stop(p); err != nil {
			t.Fatal(err)
		}
	})
}
