package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in is a virtual machine whose speed
// drifts by 10–40 % over minutes (measured: the same binary, same seed,
// 1.05 µs/IO in one quarter of an hour and 1.47 µs/IO in the next, CPU time
// inflating with wall time). So the two host-time metrics are reported
// relative to the machine's speed during the run: between slices, outside
// the timers, the runner times a fixed calibration kernel that shares no
// code with the repository, and the run's median kernel time over
// calibRefNs is the host-speed factor the median slice is divided by. A
// change to the repository cannot move the kernel; a slow quarter of an
// hour moves both alike. STABILITY.md shows, per workload, the spread with
// and without the factor. The raw figures and the factor are printed on
// stderr beside the normalised ones.

// calibRefNs is the kernel's time on the machine the benchmark was
// developed on, when quiet. It only fixes the unit (factor 1 = that
// machine); comparisons between runs do not depend on it.
const calibRefNs = 64e6

const (
	calibChaseLen   = 8 << 20 // uint32 entries: 32 MiB, past the L2
	calibChaseSteps = 250_000
	calibMixSteps   = 15_000_000
)

// calibrator times the kernel. A nil calibrator samples nothing and reports
// factor 1 (the transparency test compares virtual results only).
type calibrator struct {
	chase   []uint32
	samples []float64
	sink    uint64
}

// build maps the pointer-chase ring and links it into one cycle through
// every entry (Sattolo's shuffle), so each load depends on the previous one
// and misses the near caches. The ring is mapped outside the Go heap, so it
// is in neither live_heap_mb nor the collector's pacing; it does add its
// 32 MiB to peak_rss_mb, the same on every workload and commit. build runs
// at the first sample, after setup_s has been taken.
func (c *calibrator) build() {
	mem, err := syscall.Mmap(-1, 0, calibChaseLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("calibrator: " + err.Error()) // the run cannot be normalised
	}
	c.chase = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibChaseLen)
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(c.chase) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
}

// sample times the kernel once: a dependent-load walk (memory latency)
// followed by a register-only xorshift loop (core speed), about half the
// time each.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	if c.chase == nil {
		c.build()
	}
	t0 := time.Now()
	idx := uint32(c.sink)
	for i := 0; i < calibChaseSteps; i++ {
		idx = c.chase[idx]
	}
	x, acc := uint64(idx)|1, uint64(0)
	for i := 0; i < calibMixSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x
	}
	c.sink = acc % calibChaseLen // keeps the loops live and chains the samples
	c.samples = append(c.samples, float64(time.Since(t0).Nanoseconds()))
}

// factor is the host-speed factor over the samples taken since the last
// call: > 1 on a machine (or in a quarter of an hour) slower than the
// reference.
func (c *calibrator) factor() float64 {
	if c == nil {
		return 1
	}
	f := median(c.samples) / calibRefNs
	c.samples = c.samples[:0]
	return f
}
