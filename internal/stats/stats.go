// Package stats provides latency histograms and throughput accounting for
// the benchmark harness. Histograms use logarithmic bucketing (HDR-style)
// so that percentile queries over microsecond-to-second latencies stay
// accurate without storing every sample.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Hist is a latency histogram with logarithmic buckets: each power of two of
// nanoseconds is split into subBuckets linear sub-buckets, giving a relative
// quantization error bounded by 1/subBuckets. The zero value is ready to use.
// Counts live in a dense slice grown to the highest bucket seen (at most
// ~3800 entries for any representable duration), so the record path is an
// array increment instead of the map assignment it used to be.
type Hist struct {
	counts []uint64
	n      uint64
	sum    float64
	min    time.Duration
	max    time.Duration
}

const subBuckets = 64

func bucketOf(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	if v < subBuckets {
		return int(v)
	}
	exp := 63 - leadingZeros(v)
	// Top bits of the mantissa pick the sub-bucket.
	sub := int((v >> (uint(exp) - 6)) & (subBuckets - 1))
	return (exp-5)*subBuckets + sub
}

func bucketLow(b int) time.Duration {
	if b < subBuckets {
		return time.Duration(b)
	}
	exp := b/subBuckets + 5
	sub := b % subBuckets
	return time.Duration((uint64(1) << uint(exp)) | uint64(sub)<<(uint(exp)-6))
}

func leadingZeros(v uint64) int {
	return bits.LeadingZeros64(v)
}

// grow ensures bucket b is addressable.
func (h *Hist) grow(b int) {
	if b < len(h.counts) {
		return
	}
	n := make([]uint64, b+b/2+1)
	copy(n, h.counts)
	h.counts = n
}

// Add records one latency observation.
func (h *Hist) Add(d time.Duration) {
	b := bucketOf(d)
	h.grow(b)
	h.counts[b]++
	h.n++
	h.sum += float64(d)
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.n == 0 {
		return
	}
	h.grow(len(other.counts) - 1)
	for b, c := range other.counts {
		h.counts[b] += c
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.n }

// Mean returns the average latency, or 0 when empty.
func (h *Hist) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.n))
}

// Min returns the smallest recorded latency.
func (h *Hist) Min() time.Duration { return h.min }

// Max returns the largest recorded latency.
func (h *Hist) Max() time.Duration { return h.max }

// Percentile returns the latency at quantile q in [0,100]. For an empty
// histogram it returns 0.
func (h *Hist) Percentile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q >= 100 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	target := uint64(math.Ceil(q / 100 * float64(h.n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= target {
			lo := bucketLow(b)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// Summary is a compact distribution snapshot.
type Summary struct {
	Count               uint64
	Mean, Min, Max      time.Duration
	P50, P95, P99, P999 time.Duration
}

// Summarize computes the standard percentile set.
func (h *Hist) Summarize() Summary {
	return Summary{
		Count: h.n, Mean: h.Mean(), Min: h.min, Max: h.max,
		P50: h.Percentile(50), P95: h.Percentile(95),
		P99: h.Percentile(99), P999: h.Percentile(99.9),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p99.9=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.P999.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// Throughput converts bytes moved over a duration into MB/s (decimal MB).
func Throughput(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}
