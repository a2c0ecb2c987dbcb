package lightnvm

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/nand"
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// rawDevice is a wear-free 2 × 2 PU device with Westlake's 64 KiB write
// unit, registered with the owner guard on: a raw target whose map strays
// onto a foreign PU panics at the device boundary.
func rawDevice(t *testing.T, suspendSlice time.Duration) (*sim.Env, *Device) {
	t.Helper()
	env := sim.NewEnv(3)
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	tm := ocssd.DefaultTiming()
	tm.SuspendSlice = suspendSlice
	dev, err := ocssd.New(env, ocssd.Config{
		Geometry: ppa.Geometry{
			Channels: 2, PUsPerChannel: 2, PlanesPerPU: 4,
			BlocksPerPlane: 8, PagesPerBlock: 32,
			SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
		},
		Timing: tm, Media: m, PageCache: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := Register("raw-test", dev)
	ln.EnableOwnerGuard()
	return env, ln
}

// mustRaw panics rather than t.Fatal: it runs inside simulation processes,
// and a panic there surfaces through env.Run on the test goroutine.
func mustRaw(ln *Device, name string, begin, end int) *Raw {
	v, err := ln.Reserve(name, PURange{begin, end})
	if err != nil {
		panic(err)
	}
	return NewRaw(v)
}

func TestRawMapIsABijectionOntoTheView(t *testing.T) {
	env, ln := rawDevice(t, 0)
	env.Go("main", func(p *sim.Proc) {
		raw := mustRaw(ln, "raw0", 1, 3) // straddles the two channels
		f, seen := raw.view.Format(), map[int64]bool{}
		sectors := raw.Capacity() / int64(raw.SectorSize())
		for lba := int64(0); lba < sectors; lba++ {
			a := raw.addr(lba)
			if !f.Valid(a) || !raw.view.Contains(a) || seen[f.SectorIndex(a)] {
				t.Errorf("lba %d -> %v: invalid, outside the view, or mapped twice", lba, a)
				return
			}
			seen[f.SectorIndex(a)] = true
		}
		if want := 2 * raw.geo.PUBytes() / int64(raw.SectorSize()); sectors != want {
			t.Errorf("map covers %d sectors, the view has %d", sectors, want)
		}
	})
	env.Run()
}

func TestRawPayloadRoundTrip(t *testing.T) {
	env, ln := rawDevice(t, 0)
	env.Go("main", func(p *sim.Proc) {
		raw := mustRaw(ln, "raw0", 1, 3)
		const ss, unit = 4096, 64 << 10
		payload := make([]byte, 6*unit) // three units per PU, 96 sectors
		rand.New(rand.NewSource(1)).Read(payload)
		if err := raw.Write(p, 0, payload, int64(len(payload))); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(payload)) // two vectors: 64 + 32 sectors
		if err := raw.Read(p, 0, got, int64(len(got))); err != nil || !bytes.Equal(got, payload) {
			t.Errorf("blocking read: err %v, payload equal %v", err, bytes.Equal(got, payload))
		}
		// Through a queue pair, at offsets that straddle units and PUs.
		q := raw.OpenQueue(env, 2)
		var reqs []*blockdev.Request
		for _, off := range []int64{0, 15 * ss, unit - ss, 3*unit + 2*ss} {
			reqs = append(reqs, &blockdev.Request{Op: blockdev.ReqRead, Off: off, Buf: make([]byte, 5*ss), Length: 5 * ss})
		}
		q.Submit(reqs...)
		q.Drain(p)
		for _, r := range reqs {
			if r.Err != nil || !bytes.Equal(r.Buf, payload[r.Off:r.Off+r.Length]) {
				t.Errorf("queued read at %d: err %v, payload differs", r.Off, r.Err)
			}
		}
	})
	env.Run()
}

// Misuse of the media's rules comes back as an error on the request.
func TestRawContractViolationsAreErrors(t *testing.T) {
	env, ln := rawDevice(t, 0)
	env.Go("main", func(p *sim.Proc) {
		raw := mustRaw(ln, "raw0", 0, 2)
		if _, err := ln.Reserve("greedy", PURange{1, 3}); err == nil {
			t.Error("a raw target was created over a PU another owns")
		}
		const unit = 64 << 10
		if err := raw.Write(p, 0, nil, 4096); !errors.Is(err, ErrRawPartialUnit) {
			t.Errorf("4 KiB write: %v, want ErrRawPartialUnit", err)
		}
		if err := raw.Write(p, 4096, nil, unit); !errors.Is(err, ErrRawPartialUnit) {
			t.Errorf("unaligned unit write: %v, want ErrRawPartialUnit", err)
		}
		if err := raw.Trim(p, 0, unit); !errors.Is(err, ErrRawTrim) {
			t.Errorf("trim: %v, want ErrRawTrim", err)
		}
		if err := raw.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
		// Unit 2 is page 1 of PU 0's first block; its page 0 is unwritten.
		if err := raw.Write(p, 2*unit, nil, unit); !errors.Is(err, nand.ErrNonSequential) {
			t.Errorf("out-of-order program: %v, want nand.ErrNonSequential", err)
		}
		q := raw.OpenQueue(env, 1)
		r := &blockdev.Request{Op: blockdev.ReqWrite, Off: 4 * unit, Length: unit}
		q.Submit(r)
		q.Drain(p)
		if !errors.Is(r.Err, nand.ErrNonSequential) {
			t.Errorf("out-of-order program through a queue: %v", r.Err)
		}
	})
	env.Run()
}

// With suspension on, a program or erase yields to whatever is queued on
// its PU and resumes behind it, so a program queued at the device overtakes
// the one before it. Only the target's per-PU ordering keeps a multi-unit
// write in page order (DESIGN.md §"Device contract"); without it the first
// write below already fails with nand.ErrNonSequential.
func TestRawKeepsProgramOrderUnderSuspension(t *testing.T) {
	env, ln := rawDevice(t, 100*time.Microsecond)
	env.Go("main", func(p *sim.Proc) {
		raw := mustRaw(ln, "raw0", 0, 2)
		const chunk = 256 << 10 // two units per PU
		// One and a half passes over two blocks per PU: the wrap erases and
		// rewrites the first block of each.
		chunks := raw.BlockBytes(2) / chunk
		for i := int64(0); i < chunks*3/2; i++ {
			if err := raw.Write(p, i%chunks*chunk, nil, chunk); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	})
	env.Run()
}
