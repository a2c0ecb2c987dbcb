package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyHist(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
}

func TestSingleSample(t *testing.T) {
	var h Hist
	h.Add(100 * time.Microsecond)
	if h.Count() != 1 {
		t.Fatal("count")
	}
	for _, q := range []float64{0, 50, 99, 100} {
		got := h.Percentile(q)
		if got < 98*time.Microsecond || got > 102*time.Microsecond {
			t.Fatalf("p%v = %v, want ~100µs", q, got)
		}
	}
	if h.Min() != 100*time.Microsecond || h.Max() != 100*time.Microsecond {
		t.Fatal("min/max")
	}
}

func TestPercentileAccuracy(t *testing.T) {
	var h Hist
	// Uniform 1..1000 µs.
	for i := 1; i <= 1000; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{50, 500 * time.Microsecond},
		{90, 900 * time.Microsecond},
		{99, 990 * time.Microsecond},
	}
	for _, c := range checks {
		got := h.Percentile(c.q)
		lo := time.Duration(float64(c.want) * 0.95)
		hi := time.Duration(float64(c.want) * 1.05)
		if got < lo || got > hi {
			t.Errorf("p%v = %v, want within 5%% of %v", c.q, got, c.want)
		}
	}
	if h.Percentile(100) != time.Millisecond {
		t.Errorf("p100 = %v, want max", h.Percentile(100))
	}
}

func TestMean(t *testing.T) {
	var h Hist
	h.Add(10 * time.Microsecond)
	h.Add(30 * time.Microsecond)
	if got := h.Mean(); got != 20*time.Microsecond {
		t.Fatalf("mean = %v, want 20µs", got)
	}
}

func TestMerge(t *testing.T) {
	var a, b Hist
	for i := 0; i < 100; i++ {
		a.Add(time.Duration(i) * time.Microsecond)
		b.Add(time.Duration(i+1000) * time.Microsecond)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Max() < 1099*time.Microsecond/100*99 {
		t.Fatalf("max = %v", a.Max())
	}
	if a.Min() != 0 {
		t.Fatalf("min = %v", a.Min())
	}
	a.Merge(nil) // must not panic
}

func TestBucketMonotonic(t *testing.T) {
	fn := func(x, y uint32) bool {
		a, b := time.Duration(x), time.Duration(y)
		if a > b {
			a, b = b, a
		}
		return bucketOf(a) <= bucketOf(b)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketLowWithinBucket(t *testing.T) {
	// bucketLow(bucketOf(d)) must be <= d and within the quantization
	// error bound (1/64 relative).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		d := time.Duration(rng.Int63n(int64(10 * time.Second)))
		lo := bucketLow(bucketOf(d))
		if lo > d {
			t.Fatalf("bucketLow(%v) = %v > input", d, lo)
		}
		if d > 64 && float64(d-lo)/float64(d) > 1.0/32 {
			t.Fatalf("quantization error too large: %v -> %v", d, lo)
		}
	}
}

func TestPercentileNeverExceedsBounds(t *testing.T) {
	fn := func(samples []uint32, q float64) bool {
		if len(samples) == 0 {
			return true
		}
		var h Hist
		for _, s := range samples {
			h.Add(time.Duration(s))
		}
		p := h.Percentile(q)
		return p >= h.Min() && p <= h.Max()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1e6, time.Second); got != 1.0 {
		t.Fatalf("1MB over 1s = %v MB/s, want 1", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Fatalf("zero duration = %v, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	var h Hist
	for i := 0; i < 1000; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	s := h.Summarize()
	if s.Count != 1000 || s.P50 == 0 || s.P999 < s.P50 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}
