package nullblk

import (
	"errors"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

func TestLatencies(t *testing.T) {
	env := sim.NewEnv(1)
	d := New(DefaultConfig())
	env.Go("main", func(p *sim.Proc) {
		t0 := env.Now()
		if err := d.Read(p, 0, nil, 4096); err != nil {
			t.Fatal(err)
		}
		if got := env.Now() - t0; got != 1970*time.Nanosecond {
			t.Fatalf("read latency = %v", got)
		}
		t0 = env.Now()
		if err := d.Write(p, 0, nil, 4096); err != nil {
			t.Fatal(err)
		}
		if got := env.Now() - t0; got != 2*time.Microsecond {
			t.Fatalf("write latency = %v", got)
		}
	})
	env.Run()
	if d.Reads != 1 || d.Writes != 1 {
		t.Fatal("op counters")
	}
}

func TestReadZeroesBuffer(t *testing.T) {
	env := sim.NewEnv(1)
	d := New(DefaultConfig())
	env.Go("main", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		for i := range buf {
			buf[i] = 0xff
		}
		if err := d.Read(p, 0, buf, 4096); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("null device read returned non-zero")
			}
		}
	})
	env.Run()
}

func TestRangeChecks(t *testing.T) {
	env := sim.NewEnv(1)
	d := New(Config{SectorSize: 4096, CapacityB: 8192})
	env.Go("main", func(p *sim.Proc) {
		if err := d.Read(p, 1, nil, 4096); !errors.Is(err, blockdev.ErrAlignment) {
			t.Fatalf("unaligned: %v", err)
		}
		if err := d.Write(p, 8192, nil, 4096); !errors.Is(err, blockdev.ErrOutOfRange) {
			t.Fatalf("out of range: %v", err)
		}
		if err := d.Trim(p, 0, 4096); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(p); err != nil {
			t.Fatal(err)
		}
	})
	env.Run()
}

func TestBufferLengthMismatch(t *testing.T) {
	env := sim.NewEnv(1)
	d := New(DefaultConfig())
	env.Go("main", func(p *sim.Proc) {
		if err := d.Read(p, 0, make([]byte, 100), 4096); err == nil {
			t.Fatal("buffer/length mismatch accepted")
		}
	})
	env.Run()
}
