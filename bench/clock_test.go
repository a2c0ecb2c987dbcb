package main

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestQuantileInterpolates pins quantileUS to stats.Hist's bucket layout: the
// interpolated value must land within one bucket width (1/64) of the exact
// sample percentile, and must resolve differences Percentile quantizes away.
func TestQuantileInterpolates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h stats.Hist
	var samples []float64
	for i := 0; i < 200_000; i++ {
		d := time.Duration(80_000 + rng.ExpFloat64()*40_000)
		h.Add(d)
		samples = append(samples, float64(d))
	}
	sort.Float64s(samples)
	for _, q := range []float64{50, 99, 99.9} {
		exact := samples[int(q/100*float64(len(samples)))-1]
		got := quantileUS(&h, q) * 1e3
		if diff := (got - exact) / exact; diff < -1.0/64 || diff > 1.0/64 {
			t.Errorf("q%v: interpolated %.0f, exact %.0f (%.2f%% apart)", q, got, exact, 100*diff)
		}
		if quantized := float64(h.Percentile(q)); got == quantized {
			t.Errorf("q%v: %.0f is the bucket's lower bound, not an interpolation", q, got)
		}
	}
	var one stats.Hist
	one.Add(5 * time.Microsecond)
	if got := quantileUS(&one, 50); got < 5 || got > 5.001 {
		t.Errorf("single sample: %v", got)
	}
	var empty stats.Hist
	if got := quantileUS(&empty, 50); got != 0 {
		t.Errorf("empty histogram: %v", got)
	}
}
