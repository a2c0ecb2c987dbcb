// Command lnvm-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lnvm-bench -list
//	lnvm-bench [-quick] [-blocks N] [-duration D] [-parallel [-workers N]] <experiment-id>...
//	lnvm-bench all
//
// Experiment ids: table1, overhead, fig4, fig5, fig6, fig7, fig8, and the
// ablation studies (ablate-*). Output is plain text, one section per
// table/figure, with the paper's reference values inline.
//
// -parallel runs the supported experiments on the sharded simulation
// engine (device shards on a worker pool under conservative time windows);
// output is byte-identical for any -workers value. The profiling flags
// (-cpuprofile, -memprofile, -trace) cover the whole invocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"syscall"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		blocks     = flag.Int("blocks", 0, "blocks per plane (device scale; 0 = default)")
		duration   = flag.Duration("duration", 0, "virtual measurement window per data point (0 = default)")
		seed       = flag.Int64("seed", 0, "simulation seed (0 = default)")
		parallel   = flag.Bool("parallel", false, "run on the sharded engine (worker pool over device shards)")
		workers    = flag.Int("workers", 0, "sharded-engine worker goroutines (0 = GOMAXPROCS)")
		peLimit    = flag.Int("pe-limit", 0, "media P/E cycle budget for wear-aware experiments (0 = default)")
		retAccel   = flag.Float64("retention-accel", 0, "retention-BER clock multiplier, bake-oven style (0 = default)")
		readRetry  = flag.Int("read-retry", 0, "device read-retry tier budget (0 = default, negative = none)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lnvm-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lnvm-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lnvm-bench: -trace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "lnvm-bench: -trace: %v\n", err)
			os.Exit(1)
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lnvm-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC() // flush final allocations into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "lnvm-bench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lnvm-bench [-quick] [-blocks N] [-duration D] [-parallel [-workers N]] <experiment-id>... | all | -list")
		os.Exit(2)
	}
	opts := harness.Options{
		BlocksPerPlane: *blocks,
		Duration:       *duration,
		Quick:          *quick,
		Seed:           *seed,
		Parallel:       *parallel,
		Workers:        *workers,
		PELimit:        *peLimit,
		RetentionAccel: *retAccel,
		ReadRetry:      *readRetry,
	}

	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}
	for _, id := range ids {
		e, ok := harness.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "lnvm-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("\n#### %s — %s\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "lnvm-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("\n[%s completed in %v wall time, peak RSS %d MB]\n",
			e.ID, time.Since(start).Round(time.Millisecond), peakRSSMB())
	}
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM; Linux
// reports ru_maxrss in KB). It never falls, so with several experiments in
// one invocation each line shows the peak up to and including its own.
func peakRSSMB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss >> 10
}
