package ocssd

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/ppa"
	"repro/internal/sim"
)

// buildSharded returns a 4-shard device (host + 3 PU-group shards covering
// the 16 channels) with transport latencies enabled.
func buildSharded(t *testing.T, workers int) (*sim.ShardedEnv, *Device) {
	t.Helper()
	cfg := testConfig()
	cfg.Timing.SubmitLatency = 2 * time.Microsecond
	cfg.Timing.CompleteLatency = 2 * time.Microsecond
	se := sim.NewShardedEnv(1, 4)
	se.SetLookahead(2 * time.Microsecond)
	se.SetWorkers(workers)
	shards := []*sim.Env{se.Shard(1), se.Shard(2), se.Shard(3)}
	dev, err := NewSharded(se.Host(), shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dev.Sharded() {
		t.Fatal("device not sharded")
	}
	return se, dev
}

// shardedWorkload drives a mixed write/read/erase/buffered pattern across
// many channels and returns a trace of completion times, payload checks
// and final stats.
func shardedWorkload(t *testing.T, workers int) []string {
	t.Helper()
	se, dev := buildSharded(t, workers)
	g := dev.Geometry()
	var log []string
	se.Host().Go("load", func(p *sim.Proc) {
		// Stripe whole-page writes across every channel, two pages deep.
		for page := 0; page < 2; page++ {
			for ch := 0; ch < g.Channels; ch++ {
				c := writeUnit(p, dev, ch, ch%g.PUsPerChannel, 0, page, byte(0x10+page))
				if c.Failed() {
					t.Errorf("write ch%d page%d: %v", ch, page, c.FirstErr())
				}
				dev.Recycle(c)
			}
		}
		// Buffered writes on a few channels, then flush.
		for ch := 0; ch < 4; ch++ {
			var addrs []ppa.Addr
			var data [][]byte
			for pl := 0; pl < g.PlanesPerPU; pl++ {
				for s := 0; s < g.SectorsPerPage; s++ {
					addrs = append(addrs, ppa.Addr{Ch: ch, PU: 1, Plane: pl, Block: 1, Page: 0, Sector: s})
					data = append(data, bytes.Repeat([]byte{0x77}, g.SectorSize))
				}
			}
			c := dev.Do(p, &Vector{Op: OpWrite, Addrs: addrs, Data: data, Buffered: true})
			if c.Failed() {
				t.Errorf("buffered write ch%d: %v", ch, c.FirstErr())
			}
		}
		dev.FlushCMB(p)
		// Read everything back, verifying payloads.
		for page := 0; page < 2; page++ {
			for ch := 0; ch < g.Channels; ch++ {
				c := dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{
					{Ch: ch, PU: ch % g.PUsPerChannel, Plane: 1, Block: 0, Page: page, Sector: 2}}})
				if c.Failed() {
					t.Errorf("read ch%d page%d: %v", ch, page, c.FirstErr())
				}
				want := bytes.Repeat([]byte{byte(0x10 + page)}, g.SectorSize)
				if !bytes.Equal(c.Data[0], want) {
					t.Errorf("payload mismatch ch%d page%d", ch, page)
				}
				log = append(log, fmt.Sprintf("r ch%d p%d @%d", ch, page, se.Host().Now()))
				dev.Recycle(c)
			}
		}
		// Erase one block per channel and verify reads now fail.
		for ch := 0; ch < g.Channels; ch++ {
			var addrs []ppa.Addr
			for pl := 0; pl < g.PlanesPerPU; pl++ {
				addrs = append(addrs, ppa.Addr{Ch: ch, PU: ch % g.PUsPerChannel, Plane: pl, Block: 0})
			}
			c := dev.Do(p, &Vector{Op: OpErase, Addrs: addrs})
			if c.Failed() {
				t.Errorf("erase ch%d: %v", ch, c.FirstErr())
			}
			dev.Recycle(c)
		}
		dev.Crash() // exercise the posted cache invalidation
	})
	se.Run()
	s := dev.Stats
	log = append(log, fmt.Sprintf("stats r%d w%d e%d fr%d fp%d ch%d bw%d end@%d",
		s.Reads, s.Writes, s.Erases, s.FlashReads, s.FlashPrograms, s.CacheHits, s.BufferedWrites, se.Host().Now()))
	return log
}

// TestShardedDeviceDeterministicAcrossWorkers: the sharded device's entire
// observable behaviour (completion times, payloads, stats) must not depend
// on the worker count.
func TestShardedDeviceDeterministicAcrossWorkers(t *testing.T) {
	serial := shardedWorkload(t, 1)
	for _, w := range []int{2, 8} {
		got := shardedWorkload(t, w)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: trace length %d vs %d", w, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: trace[%d] = %q, want %q", w, i, got[i], serial[i])
			}
		}
	}
}

// TestShardedTransportLatency: with the transport hops enabled, a single
// 4K read costs submit + overhead + flash read + transfer + complete.
func TestShardedTransportLatency(t *testing.T) {
	se, dev := buildSharded(t, 1)
	var lat time.Duration
	se.Host().Go("lat", func(p *sim.Proc) {
		c := writeUnit(p, dev, 3, 0, 0, 0, 0xab)
		if c.Failed() {
			t.Fatalf("write: %v", c.FirstErr())
		}
		dev.Recycle(c)
		start := se.Host().Now()
		c = dev.Do(p, &Vector{Op: OpRead, Addrs: []ppa.Addr{{Ch: 3, Plane: 0, Block: 0, Page: 0, Sector: 0}}})
		if c.Failed() {
			t.Fatalf("read: %v", c.FirstErr())
		}
		lat = se.Host().Now() - start
	})
	se.Run()
	tm := dev.Timing()
	want := tm.SubmitLatency + tm.CmdOverhead + tm.PageRead + dev.xferTime(1) + tm.CompleteLatency
	if lat != want {
		t.Fatalf("sharded 4K read latency %v, want %v", lat, want)
	}
}
