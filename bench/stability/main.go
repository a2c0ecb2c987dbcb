// Command stability checks that the benchmark repeats: it runs BENCHMARK.json's
// command for two sets of N runs per workload, every run with another seed,
// and prints per end-to-end metric both medians and quartiles, the spread
// (distance between the quartiles as a share of the median, Python's
// statistics.quantiles(n=4) method), how much worse the second median is
// than the first, and the metric's bound. Run it from the repository root:
//
//	go -C bench run ./stability -n 10 > bench/STABILITY.md
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	// hostSpeed and rawHostNs come from the runner's stderr: the run's
	// host-speed factor and the host time before it was divided out.
	hostSpeed, rawHostNs float64
}

var hostSpeedRE = regexp.MustCompile(`host_speed=([0-9.]+) raw_host_ns_per_io=([0-9.e+]+)`)

// runOnce runs the benchmark command and parses the last line of its output.
func runOnce(b *benchmark, workload string, seed, seconds int) (*result, time.Duration, error) {
	args := append(append([]string(nil), b.Command[1:]...),
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd := exec.Command(b.Command[0], args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	out, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, wall, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !r.Correct || r.Failed != 0 {
		return nil, wall, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, r.Failed, r.Attempted)
	}
	if m := hostSpeedRE.FindSubmatch(stderr.Bytes()); m != nil {
		r.hostSpeed, _ = strconv.ParseFloat(string(m[1]), 64)
		r.rawHostNs, _ = strconv.ParseFloat(string(m[2]), 64)
	}
	return &r, wall, nil
}

// longMultiple: after the two sets, each workload runs once at this multiple
// of run_seconds, to show that it neither exhausts the lsmdb table area nor
// outgrows memory.
const longMultiple = 3

// quartiles follows statistics.quantiles(values, n=4), method "exclusive".
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func main() {
	n := flag.Int("n", 10, "runs per set")
	flag.Parse()

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "stability: run from the repository root:", err)
		os.Exit(1)
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		fmt.Fprintln(os.Stderr, "stability: BENCHMARK.json:", err)
		os.Exit(1)
	}

	fmt.Printf("# Benchmark stability\n\n")
	fmt.Printf("Two sets of %d runs per workload, `--seconds %d`, seeds 1..%d in set A and %d..%d in set B, on %s.\n",
		*n, b.RunSeconds, *n, *n+1, 2**n, time.Now().UTC().Format("2006-01-02"))
	fmt.Printf("spread = (Q3 − Q1) / median within a set; worse = how far set B's median is on the worse side of set A's.\n")
	fmt.Printf("A metric passes when both spreads and `worse` stay within its bound (`setup_s`: `worse` only).\n")
	fmt.Printf("The rows in parentheses are not metrics: the host time before the run's host-speed factor was divided out, and the factor.\n\n")
	ok := true
	// Per metric, over all workloads: the widest spread, the worst shift of
	// the median, and where each was seen.
	type extreme struct {
		spread, worse   float64
		spreadW, worseW string
	}
	worst := make([]extreme, len(b.EndToEnd))
	for _, w := range b.Workloads {
		var sets [2][]*result
		var walls []float64
		for s := range sets {
			for i := 0; i < *n; i++ {
				r, wall, err := runOnce(&b, w.Name, s**n+i+1, b.RunSeconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "stability:", err)
					os.Exit(1)
				}
				sets[s] = append(sets[s], r)
				walls = append(walls, wall.Seconds())
				fmt.Fprintf(os.Stderr, "stability: %s set %c run %d: %.1f s\n", w.Name, 'A'+s, i+1, wall.Seconds())
			}
		}
		sort.Float64s(walls)
		fmt.Printf("## %s\n\nwhole-run wall time: median %.1f s, max %.1f s\n\n", w.Name, walls[len(walls)/2], walls[len(walls)-1])
		fmt.Printf("| metric | unit | median A | Q1..Q3 A | spread A | median B | Q1..Q3 B | spread B | worse | bound | |\n")
		fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|\n")
		for mi, m := range b.EndToEnd {
			var med, spread [2]float64
			var iqr [2]string
			for s := range sets {
				var vals []float64
				for _, r := range sets[s] {
					vals = append(vals, r.Metrics[m.Name].Value)
				}
				q1, q2, q3 := quartiles(vals)
				med[s], spread[s] = q2, (q3-q1)/q2
				iqr[s] = fmt.Sprintf("%.5g..%.5g", q1, q3)
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			if sp := max(spread[0], spread[1]); sp > worst[mi].spread {
				worst[mi].spread, worst[mi].spreadW = sp, w.Name
			}
			if worse > worst[mi].worse {
				worst[mi].worse, worst[mi].worseW = worse, w.Name
			}
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && (spread[0] > m.Bound || spread[1] > m.Bound)) {
				verdict, ok = "**FAIL**", false
			}
			fmt.Printf("| %s | %s | %.6g | %s | %.4f | %.6g | %s | %.4f | %+.4f | %.3g | %s |\n",
				m.Name, m.Unit, med[0], iqr[0], spread[0], med[1], iqr[1], spread[1], worse, m.Bound, verdict)
		}
		// Not metrics: what the host-speed normalisation removed.
		for _, extra := range []struct {
			name string
			get  func(*result) float64
		}{
			{"(raw host_ns_per_io)", func(r *result) float64 { return r.rawHostNs }},
			{"(host_speed factor)", func(r *result) float64 { return r.hostSpeed }},
		} {
			var med, spread [2]float64
			for s := range sets {
				var vals []float64
				for _, r := range sets[s] {
					vals = append(vals, extra.get(r))
				}
				q1, q2, q3 := quartiles(vals)
				med[s], spread[s] = q2, (q3-q1)/q2
			}
			fmt.Printf("| %s | | %.6g | | %.4f | %.6g | | %.4f | %+.4f | | |\n",
				extra.name, med[0], spread[0], med[1], spread[1], (med[1]-med[0])/med[0])
		}
		fmt.Println()
		r, wall, err := runOnce(&b, w.Name, 2**n+1, longMultiple*b.RunSeconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stability:", err)
			os.Exit(1)
		}
		fmt.Printf("%d× length (`--seconds %d`): %d operations, none failed, peak RSS %.0f MB, %.1f s wall.\n\n",
			longMultiple, longMultiple*b.RunSeconds, r.Attempted, r.Metrics["peak_rss_mb"].Value, wall.Seconds())
	}
	fmt.Printf("## Bounds\n\nPer metric, the widest spread and the worst shift of the median over the four workloads, as a share of the bound.\n\n")
	fmt.Printf("| metric | bound | widest spread | on | ÷ bound | worst shift | on | ÷ bound |\n|---|---|---|---|---|---|---|---|\n")
	for mi, m := range b.EndToEnd {
		x := worst[mi]
		fmt.Printf("| %s | %.3g | %.4f | %s | %.2f | %+.4f | %s | %.2f |\n",
			m.Name, m.Bound, x.spread, x.spreadW, x.spread/m.Bound, x.worse, x.worseW, x.worse/m.Bound)
	}
	fmt.Println()
	if !ok {
		fmt.Println("**At least one metric is outside its bound.**")
		os.Exit(1)
	}
	fmt.Println("Every metric is within its bound.")
}
