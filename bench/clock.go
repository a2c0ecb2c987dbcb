package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// processStart anchors setup_s: everything from process start to the first
// measured slice is set-up.
var processStart = time.Now()

// cpuNow returns the user+system CPU time the whole process has consumed —
// every thread, so work moved onto GC or worker threads still shows.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "<key>: <n> kB" field of /proc/self/status.
func procStatusKB(key string) (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status: no %s field", key)
}

// rssLimitKB aborts a run with a message instead of leaving it to the OOM
// killer; checked at every phase and slice boundary.
const rssLimitKB = 6 << 20

func checkRSS(where string) error {
	kb, err := procStatusKB("VmRSS")
	if err != nil {
		return err
	}
	if kb > rssLimitKB {
		return fmt.Errorf("resident set %d MB passed the %d MB limit %s; aborting instead of waiting for the OOM killer",
			kb>>10, rssLimitKB>>10, where)
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileUS returns the latency, in microseconds, at quantile q in (0,100)
// of h, interpolated
// by rank inside the histogram bucket that holds it, with all its digits. stats.Hist.Percentile
// reports the bucket's lower bound, which is quantized to 1/64 of the
// value: across seeds that either repeats to the last digit or jumps a
// whole bucket. Hist exports no bucket counts, so the ranks at which its
// answer changes are found by bisection on Percentile itself; the bucket
// bounds follow Hist's layout (64 linear sub-buckets per power of two).
func quantileUS(h *stats.Hist, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	atRank := func(r uint64) time.Duration { // r in [1,n]
		return h.Percentile((float64(r) - 0.5) / float64(n) * 100)
	}
	k := uint64(math.Ceil(q / 100 * float64(n)))
	k = min(max(k, 1), n)
	v := atRank(k)
	// first and last rank answering v
	lo := k - uint64(sort.Search(int(k-1), func(i int) bool { return atRank(k-1-uint64(i)) != v }))
	hi := k + uint64(sort.Search(int(n-k), func(i int) bool { return atRank(k+1+uint64(i)) != v }))
	low, width := int64(v), int64(1)
	if v >= 64 {
		exp := 63 - bits.LeadingZeros64(uint64(v))
		width = 1 << (exp - 6)
		low = int64(v) &^ (width - 1)
	}
	top := low + width
	low = max(low, int64(h.Min()))
	top = min(top, int64(h.Max())+1)
	frac := (float64(k-lo) + 0.5) / float64(hi-lo+1)
	return (float64(low) + frac*float64(top-low)) / 1e3
}
