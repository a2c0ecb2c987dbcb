// Device conformance: every device must deliver the same contract on its
// queue pairs — completions for every request, latencies from submission
// stamps, validation-error propagation, flush barriers — and the same
// datapath behind its blocking calls.
package blockdev_test

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/nullblk"
	"repro/internal/nvmedev"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
	"repro/internal/volume"
)

// pblkDevice is the 4-PU open-channel SSD under the pblk cases.
func pblkDevice() ocssd.Config {
	cfg := ocssd.DefaultConfig(ppa.Geometry{
		Channels: 2, PUsPerChannel: 2, PlanesPerPU: 2,
		BlocksPerPlane: 40, PagesPerBlock: 32,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	})
	cfg.Seed = 5
	return cfg
}

// forEachDevice runs fn against every device model. fn runs inside a
// simulation process with the device ready for I/O.
func forEachDevice(t *testing.T, fn func(t *testing.T, env *sim.Env, p *sim.Proc, dev blockdev.Device)) {
	t.Run("nullblk", func(t *testing.T) {
		env := sim.NewEnv(1)
		dev := nullblk.New(nullblk.DefaultConfig())
		env.Go("main", func(p *sim.Proc) { fn(t, env, p, dev) })
		env.Run()
	})
	t.Run("pblk", func(t *testing.T) {
		env := sim.NewEnv(2)
		raw, err := ocssd.New(env, pblkDevice())
		if err != nil {
			t.Fatal(err)
		}
		ln := lightnvm.Register("conf", raw)
		env.Go("main", func(p *sim.Proc) {
			k, err := pblk.New(p, ln, "pblk0", pblk.Config{ActivePUs: 4})
			if err != nil {
				panic(err)
			}
			defer k.Stop(p)
			fn(t, env, p, k)
		})
		env.Run()
	})
	// Two pblk targets partitioned over one device (2 PUs each): the full
	// conformance contract must hold per-target while the sibling tenant is
	// mounted, and no command may cross the partition boundary — one that
	// did would fail at its view and count as a media error on healthy
	// media.
	t.Run("pblk-partitioned", func(t *testing.T) {
		env := sim.NewEnv(4)
		raw, err := ocssd.New(env, pblkDevice())
		if err != nil {
			t.Fatal(err)
		}
		ln := lightnvm.Register("conf-mt", raw)
		env.Go("main", func(p *sim.Proc) {
			var ks []*pblk.Pblk
			for i, name := range []string{"a", "b"} {
				v, err := ln.Reserve(name, lightnvm.PURange{Begin: 2 * i, End: 2*i + 2})
				if err != nil {
					panic(err)
				}
				k, err := pblk.NewView(p, v, pblk.Config{ActivePUs: 2, OverProvision: 0.3})
				if err != nil {
					panic(err)
				}
				ks = append(ks, k)
			}
			for _, k := range ks {
				t.Run(k.MediaView().Name(), func(t *testing.T) { fn(t, env, p, k) })
			}
			for _, k := range ks {
				if err := k.Stop(p); err != nil {
					panic(err)
				}
				if st := k.Stats; st.WriteErrors != 0 || st.GCWriteErrors != 0 || st.EraseErrors != 0 {
					t.Errorf("%s: %d write errors (%d in GC), %d erase errors on healthy media",
						k.MediaView().Name(), st.WriteErrors, st.GCWriteErrors, st.EraseErrors)
				}
			}
		})
		env.Run()
	})
	// Volume-manager virtual targets: striped, mirrored, and RAID-10
	// volumes over a fleet of pblk-backed members must deliver the same
	// queue contract — flush barriers and drain included — through the
	// chunk fan-out datapath.
	for _, vc := range []struct {
		name   string
		seed   int64
		layout volume.Layout
	}{
		{"volume-stripe", 6, volume.Stripe(64<<10, 0, 1)},
		{"volume-mirror", 7, volume.Mirror(0, 1)},
		{"volume-raid10", 8, volume.StripeOfMirrors(64<<10, []int{0, 1}, []int{2, 3})},
	} {
		vc := vc
		t.Run(vc.name, func(t *testing.T) {
			devs := 0
			for _, set := range vc.layout.Sets {
				for _, id := range set {
					if id+1 > devs {
						devs = id + 1
					}
				}
			}
			env := sim.NewEnv(vc.seed)
			env.Go("main", func(p *sim.Proc) {
				oc := volume.DefaultDeviceConfig(16)
				oc.Geometry.Channels = 2
				oc.Geometry.PUsPerChannel = 2
				mgr, err := volume.NewManager(p, env, volume.Config{
					Devices: devs, OCSSD: oc,
					Pblk: pblk.Config{OverProvision: 0.3},
					Seed: vc.seed, NamePrefix: "conf-" + vc.name,
				})
				if err != nil {
					panic(err)
				}
				v, err := mgr.CreateVolume(vc.name, vc.layout, volume.Options{})
				if err != nil {
					panic(err)
				}
				fn(t, env, p, v)
			})
			env.Run()
		})
	}
	t.Run("nvmedev", func(t *testing.T) {
		env := sim.NewEnv(3)
		env.Go("main", func(p *sim.Proc) {
			d, err := nvmedev.New(p, env, 24, 2)
			if err != nil {
				panic(err)
			}
			defer d.Stop(p)
			fn(t, env, p, d)
		})
		env.Run()
	})
}

func TestQueueConformance(t *testing.T) {
	forEachDevice(t, func(t *testing.T, env *sim.Env, p *sim.Proc, dev blockdev.Device) {
		bs := int64(dev.SectorSize())
		q := blockdev.OpenQueue(env, dev, 8)
		if q.Depth() != 8 {
			t.Errorf("Depth = %d, want 8", q.Depth())
		}

		// Completion accounting under QD>1: every request completes
		// exactly once with a sane latency stamp.
		completions := 0
		var reqs []*blockdev.Request
		for i := 0; i < 16; i++ {
			reqs = append(reqs, &blockdev.Request{
				Op: blockdev.ReqWrite, Off: int64(i) * bs, Length: bs,
				OnComplete: func(r *blockdev.Request) {
					completions++
					if r.Err != nil {
						t.Errorf("write %d: %v", r.Off, r.Err)
					}
					if r.Done < r.Submitted {
						t.Errorf("write %d: Done %v < Submitted %v", r.Off, r.Done, r.Submitted)
					}
				},
			})
		}
		q.Submit(reqs...)
		q.Drain(p)
		if completions != 16 {
			t.Errorf("completions = %d, want 16", completions)
		}
		if q.InFlight() != 0 {
			t.Errorf("InFlight after drain = %d", q.InFlight())
		}

		// Flush-barrier semantics: the flush completes after all earlier
		// requests and before all later ones.
		var seq []string
		note := func(tag string) func(*blockdev.Request) {
			return func(*blockdev.Request) { seq = append(seq, tag) }
		}
		q.Submit(
			&blockdev.Request{Op: blockdev.ReqWrite, Off: 0, Length: bs, OnComplete: note("w0")},
			&blockdev.Request{Op: blockdev.ReqWrite, Off: bs, Length: bs, OnComplete: note("w1")},
			&blockdev.Request{Op: blockdev.ReqFlush, OnComplete: note("flush")},
			&blockdev.Request{Op: blockdev.ReqRead, Off: 0, Length: bs, OnComplete: note("r0")},
		)
		q.Drain(p)
		pos := map[string]int{}
		for i, s := range seq {
			pos[s] = i
		}
		if len(seq) != 4 {
			t.Errorf("barrier sequence %v, want 4 completions", seq)
		} else if pos["flush"] < pos["w0"] || pos["flush"] < pos["w1"] || pos["flush"] > pos["r0"] {
			t.Errorf("barrier violated: completion order %v", seq)
		}

		// Error propagation into completions.
		var badErr error
		q.Submit(&blockdev.Request{
			Op: blockdev.ReqRead, Off: dev.Capacity(), Length: bs,
			OnComplete: func(r *blockdev.Request) { badErr = r.Err },
		})
		q.Drain(p)
		if !errors.Is(badErr, blockdev.ErrOutOfRange) {
			t.Errorf("out-of-range read err = %v, want ErrOutOfRange", badErr)
		}
		// A range whose end overflows int64 is out of range too.
		badErr = nil
		q.Submit(&blockdev.Request{
			Op: blockdev.ReqRead, Off: overflowOff(dev), Length: 2 * bs,
			OnComplete: func(r *blockdev.Request) { badErr = r.Err },
		})
		q.Drain(p)
		if !errors.Is(badErr, blockdev.ErrOutOfRange) {
			t.Errorf("overflowing read err = %v, want ErrOutOfRange", badErr)
		}
	})
}

// overflowOff is the last sector-aligned offset an int64 holds: any
// transfer of two sectors from it ends past MaxInt64.
func overflowOff(dev blockdev.Device) int64 {
	return math.MaxInt64 &^ int64(dev.SectorSize()-1)
}

// TestSyncAdapterPreservesDeviceSemantics drives the blocking calls — the
// device's own and an adapter's over one of its queue pairs — and checks
// data integrity where the device stores data (pblk, nvmedev, volumes),
// latency charging and range validation everywhere.
func TestSyncAdapterPreservesDeviceSemantics(t *testing.T) {
	type blocking interface {
		Read(p *sim.Proc, off int64, buf []byte, length int64) error
		Write(p *sim.Proc, off int64, buf []byte, length int64) error
		Flush(p *sim.Proc) error
		Trim(p *sim.Proc, off, length int64) error
	}
	forEachDevice(t, func(t *testing.T, env *sim.Env, p *sim.Proc, dev blockdev.Device) {
		bs := int64(dev.SectorSize())
		sa := blockdev.NewQueueAdapter(env, blockdev.OpenQueue(env, dev, 1))
		for i, b := range []blocking{dev, sa} {
			off := int64(1+i) * bs
			data := bytes.Repeat([]byte{0xa5 + byte(i)}, int(bs))
			start := env.Now()
			if err := b.Write(p, off, data, bs); err != nil {
				panic(err)
			}
			if env.Now() == start {
				t.Error("write charged no virtual time")
			}
			if err := b.Flush(p); err != nil {
				panic(err)
			}
			got := make([]byte, bs)
			if err := b.Read(p, off, got, bs); err != nil {
				panic(err)
			}
			if _, isNull := dev.(*nullblk.Device); !isNull && !bytes.Equal(got, data) {
				t.Error("read-back mismatch")
			}
			if err := b.Trim(p, off, bs); err != nil {
				panic(err)
			}
			if err := b.Read(p, overflowOff(dev), nil, 2*bs); !errors.Is(err, blockdev.ErrOutOfRange) {
				t.Errorf("overflowing read err = %v, want ErrOutOfRange", err)
			}
		}
	})
}

// TestBlockingCallsAreTheQueuePath holds the two call styles to one
// datapath: eight processes each making one blocking 64 KiB Write at the
// same instant, and one Submit of the same eight requests at depth 8 on a
// fresh instance, complete request for request at the same virtual times
// and leave the FTL, where there is one, with equal counters.
func TestBlockingCallsAreTheQueuePath(t *testing.T) {
	const n, length = 8, 64 << 10
	type outcome struct {
		done [n]time.Duration // since the first request was issued
		ftl  pblk.Stats
	}
	ftlStats := func(dev blockdev.Device) pblk.Stats {
		switch d := dev.(type) {
		case *pblk.Pblk:
			return d.Stats
		case *nvmedev.Device:
			return d.FTLStats()
		}
		return pblk.Stats{}
	}
	var blocking []outcome
	t.Run("blocking", func(t *testing.T) {
		forEachDevice(t, func(t *testing.T, env *sim.Env, p *sim.Proc, dev blockdev.Device) {
			var o outcome
			start := env.Now()
			var writers []*sim.Proc
			for i := 0; i < n; i++ {
				i := i
				writers = append(writers, env.Go("writer", func(wp *sim.Proc) {
					if err := dev.Write(wp, int64(i)*length, nil, length); err != nil {
						t.Errorf("write %d: %v", i, err)
					}
					o.done[i] = env.Now() - start
				}))
			}
			for _, w := range writers {
				p.Wait(w.Done())
			}
			o.ftl = ftlStats(dev)
			blocking = append(blocking, o)
		})
	})
	t.Run("queue", func(t *testing.T) {
		next := 0
		forEachDevice(t, func(t *testing.T, env *sim.Env, p *sim.Proc, dev blockdev.Device) {
			var o outcome
			start := env.Now()
			q := blockdev.OpenQueue(env, dev, n)
			var reqs []*blockdev.Request
			for i := 0; i < n; i++ {
				i := i
				reqs = append(reqs, &blockdev.Request{
					Op: blockdev.ReqWrite, Off: int64(i) * length, Length: length,
					OnComplete: func(r *blockdev.Request) {
						if r.Err != nil {
							t.Errorf("write %d: %v", i, r.Err)
						}
						o.done[i] = env.Now() - start
					},
				})
			}
			q.Submit(reqs...)
			q.Drain(p)
			o.ftl = ftlStats(dev)
			if want := blocking[next]; o != want {
				t.Errorf("blocking calls and queue pair diverge:\n blocking %+v\n queue    %+v", want, o)
			}
			next++
		})
	})
}
