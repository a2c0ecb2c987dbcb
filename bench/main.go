// Command bench is the repository's benchmark runner: one process per
// workload run, serial simulation engine. It measures both clocks — the
// device's virtual clock (the paper's numbers) and the host clock and heap
// (what the simulator pays to produce them) — and, on a traced run, the
// per-layer counters, micros, stack ladder and request spans that locate a
// change in the stack. See README.md.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"repro/bench/tracedev"
	"repro/internal/blockdev"
)

const (
	// The runner pins its own scheduling and GC settings, so results do
	// not depend on the caller's environment. One P: the engine is serial,
	// and with two every process handoff of the simulator and every GC
	// hand-over may cross OS threads, which cost 12–28 % more host time on
	// three of the four workloads and made lsm-readwhilewriting's spread
	// five times wider.
	benchGOMAXPROCS = 1
	benchGOGC       = 100

	// A traced run measures a quarter of the timed run's length, once
	// without and once with the tracer interposed.
	tracedFraction = 0.25
	// maxSpans bounds the spans kept in memory and written out; counters
	// and histograms cover every request regardless.
	maxSpans = 1 << 18
)

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", nominalSeconds, "target length of the measured phase; operation counts scale with it")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.Parse()

	runtime.GOMAXPROCS(benchGOMAXPROCS)
	debug.SetGCPercent(benchGOGC)

	w := workloadByName(*name)
	if w == nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: bench --workload <name> [--seed n] [--seconds s] [--trace 0|1]\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-22s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = 42 // the generators treat 0 as "unset"
	}
	scale := float64(*seconds) / nominalSeconds
	fmt.Fprintf(os.Stderr, "bench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d GOGC=%d engine=serial\n",
		w.name, *seed, *seconds, *trace, benchGOMAXPROCS, benchGOGC)

	var (
		specs             []spec
		m                 metrics
		attempted, failed int64
		err               error
	)
	if *trace == 0 {
		specs = endToEnd
		m, attempted, failed, err = timedRun(w, *seed, scale)
	} else {
		specs = perLayer
		if *traceOut == "" {
			*traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		m, attempted, failed, err = tracedRun(w, *seed, scale, *traceOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s failed: %v (attempted %d, failed %d)\n", w.name, err, attempted, failed)
		os.Exit(1)
	}
	if bad := unknownNames(specs, m); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "bench: metrics missing from the schema: %v\n", bad)
		os.Exit(1)
	}
	for _, s := range specs {
		fmt.Fprintf(os.Stderr, "%-44s %16.6g %s\n", s.name, m[s.name], s.unit)
	}
	fmt.Println(resultJSON(specs, m, attempted, failed))
	if failed > 0 {
		os.Exit(1)
	}
}

// timedRun is the untraced run behind every end-to-end metric.
func timedRun(w *workload, seed int64, scale float64) (metrics, int64, int64, error) {
	res, err := runPass(w, passOpts{seed: seed, scale: scale, cal: &calibrator{}})
	if err != nil {
		return nil, res.attempted + res.total.ops, res.failed, err
	}
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: first failed operation: %v\n", res.firstErr)
	}
	fmt.Fprintf(os.Stderr, "bench: wall ns/op by slice: %.0f\n", res.wallPerOp)
	fmt.Fprintf(os.Stderr, "bench: host_speed=%.4f raw_host_ns_per_io=%.6g raw_host_cpu_ns_per_io=%.6g (host_ns_per_io and host_cpu_ns_per_io below are raw / host_speed)\n",
		res.hostSpeed, median(res.wallPerOp), median(res.cpuPerOp))
	m, err := res.endToEndMetrics()
	return m, res.attempted, res.failed, err
}

// tracedRun measures the workload twice at a quarter of its length — bare,
// then with tracedev interposed under the load generator — and adds the
// micros and the stack ladder. Both passes simulate exactly the same
// traffic (same seed, transparent wrapper), so the ratio of their host
// times is the cost of tracing and nothing else.
func tracedRun(w *workload, seed int64, scale float64, spanFile string) (metrics, int64, int64, error) {
	scale *= tracedFraction
	cal := &calibrator{}
	bare, err := runPass(w, passOpts{seed: seed, scale: scale, cal: cal})
	if err != nil {
		return nil, bare.attempted, bare.failed, fmt.Errorf("untraced pass: %w", err)
	}
	bareHost, bareOps, bareElapsed := bare.hostNsPerIO(), bare.total.ops, bare.total.elapsed
	attempted, failed := bare.attempted, bare.failed
	bare = nil
	runtime.GC()

	res, err := runPass(w, passOpts{seed: seed, scale: scale, traced: true, cal: cal})
	attempted += res.attempted
	failed += res.failed
	if err != nil {
		return nil, attempted, failed, fmt.Errorf("traced pass: %w", err)
	}
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: first failed operation: %v\n", res.firstErr)
	}
	if res.total.ops != bareOps || res.total.elapsed != bareElapsed {
		return nil, attempted, failed + 1, fmt.Errorf("tracedev is not transparent: %d ops in %v traced, %d ops in %v bare",
			res.total.ops, res.total.elapsed, bareOps, bareElapsed)
	}

	m := metrics{}
	st, tr, t := res.st, res.st.tracer, &res.total
	layerCounts(m, st, res.before, res.after, phaseTotals{
		ops:           t.ops,
		userSectors:   (t.readBytes + t.writeBytes) / int64(st.top.SectorSize()),
		freeGroupsMin: res.freeGroupsMin,
	})
	m["blockdev.requests_per_io"] = ratio(tr.Requests, t.ops)
	m["blockdev.bytes_per_io"] = ratio(tr.Bytes, t.ops)
	m["blockdev.flushes_per_kio"] = 1000 * ratio(tr.Flushes, t.ops)
	m["blockdev.trims_per_kio"] = 1000 * ratio(tr.Trims, t.ops)
	m["blockdev.queue_wait_p50_us"] = quantileUS(&tr.QueueWait, 50)
	m["blockdev.service_p99_us"] = quantileUS(&tr.Service, 99)
	m["blockdev.submit_host_ns_per_req"] = ratio(tr.SubmitHostNs, tr.Requests)
	m["blockdev.complete_host_ns_per_req"] = ratio(tr.DoneHostN, tr.Requests)
	m["trace.overhead_ratio"] = res.hostNsPerIO() / bareHost

	if st.db != nil {
		label := st.top.(*tracedev.Device).SpanName(blockdev.ReqRead)
		tr.AttributeReads("lsmdb.get", label, lsmCPUPerOp)
		self := tr.SelfTimes("lsmdb.get")
		fmt.Fprintf(os.Stderr, "bench: lsmdb.get self time (virtual, outside device reads): p50 %.3f us, p99 %.3f us over %d spans\n",
			quantileUS(self, 50), quantileUS(self, 99), self.Count())
	}
	sh := shapeSeen(tr, t.elapsed, st.top.SectorSize())
	fmt.Fprintf(os.Stderr, "bench: ladder replays the traced shape: %d B requests, %d %% reads, queue depth %d, %d operations per rung\n",
		sh.bs, sh.readPct, sh.qd, sh.ops)
	if err := writeSpans(tr, spanFile); err != nil {
		return nil, attempted, failed, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(tr.Spans), spanFile)
	res, st, tr = nil, nil, nil
	runtime.GC()

	if err := runMicros(m); err != nil {
		return nil, attempted, failed, err
	}
	if err := runLadder(m, sh, seed); err != nil {
		return nil, attempted, failed, err
	}
	return m, attempted, failed, nil
}

func writeSpans(tr *tracedev.Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := tr.WriteJSON(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
