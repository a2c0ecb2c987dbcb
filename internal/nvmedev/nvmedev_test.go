package nvmedev

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fio"
	"repro/internal/sim"
)

// testBlocks leaves enough spare groups for the 32-PU embedded FTL.
const testBlocks = 24

func TestWriteReadRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	env.Go("main", func(p *sim.Proc) {
		d, err := New(p, env, testBlocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop(p)
		data := bytes.Repeat([]byte{0xcd}, 16384)
		if err := d.Write(p, 8192, data, 16384); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 16384)
		if err := d.Read(p, 8192, got, 16384); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
	})
	env.Run()
}

func TestFlushIsCheap(t *testing.T) {
	// The baseline has power-loss-protected DRAM: flush must not wait for
	// media (paper §5.4: OLTP flushes are absorbed by the device buffer).
	env := sim.NewEnv(1)
	env.Go("main", func(p *sim.Proc) {
		d, err := New(p, env, testBlocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop(p)
		d.Write(p, 0, nil, 4096)
		start := env.Now()
		if err := d.Flush(p); err != nil {
			t.Fatal(err)
		}
		if dur := env.Now() - start; dur > 10*time.Microsecond {
			t.Fatalf("flush took %v, want ~2µs (device buffer)", dur)
		}
		if d.Flushes != 1 {
			t.Fatal("flush not counted")
		}
	})
	env.Run()
}

func TestReadsSufferBehindDeviceWrites(t *testing.T) {
	// Host cannot isolate streams on the baseline: sustained writes raise
	// random-read tail latency (the paper's core Fig 8 contrast).
	env := sim.NewEnv(1)
	var quiet, noisy *fio.Result
	env.Go("main", func(p *sim.Proc) {
		d, err := New(p, env, testBlocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop(p)
		size := d.Capacity() / 2 / 4096 * 4096
		if err := fio.Prepare(p, d, 0, size); err != nil {
			t.Fatal(err)
		}
		// Flush is a no-op on the baseline (power-protected DRAM); let the
		// cache drain to media before the quiet measurement.
		p.Sleep(50 * time.Millisecond)
		quiet, err = fio.Run(p, d, fio.Job{Name: "q", Pattern: fio.RandRead, BS: 4096, Size: size, Runtime: 30 * time.Millisecond})
		if err != nil {
			panic(err)
		}
		wDone := env.NewEvent()
		env.Go("writer", func(pw *sim.Proc) {
			if _, err := fio.Run(pw, d, fio.Job{Name: "w", Pattern: fio.SeqWrite, BS: 65536, Offset: size, Size: d.Capacity() - size, Runtime: 30 * time.Millisecond}); err != nil {
				panic(err)
			}
			wDone.Signal()
		})
		noisy, err = fio.Run(p, d, fio.Job{Name: "n", Pattern: fio.RandRead, BS: 4096, Size: size, Runtime: 30 * time.Millisecond})
		if err != nil {
			panic(err)
		}
		p.Wait(wDone)
	})
	env.Run()
	q99 := quiet.ReadLat.Percentile(99)
	n99 := noisy.ReadLat.Percentile(99)
	if n99 < 2*q99 {
		t.Fatalf("p99 under writes (%v) should far exceed quiet p99 (%v)", n99, q99)
	}
}

func TestCapacityAndSectorSize(t *testing.T) {
	env := sim.NewEnv(1)
	env.Go("main", func(p *sim.Proc) {
		d, err := New(p, env, testBlocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop(p)
		if d.SectorSize() != 4096 {
			t.Fatalf("sector = %d", d.SectorSize())
		}
		if d.Capacity() <= 0 {
			t.Fatal("no capacity")
		}
	})
	env.Run()
}

func TestTrimAndGCStats(t *testing.T) {
	env := sim.NewEnv(1)
	env.Go("main", func(p *sim.Proc) {
		d, err := New(p, env, testBlocks, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop(p)
		d.Write(p, 0, nil, 65536)
		if err := d.Trim(p, 0, 65536); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4096)
		d.Read(p, 0, got, 4096)
		for _, b := range got {
			if b != 0 {
				t.Fatal("trim did not clear data")
			}
		}
		_ = d.FTLStats()
	})
	env.Run()
}
