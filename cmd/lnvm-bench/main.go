// Command lnvm-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lnvm-bench -list
//	lnvm-bench [-quick] [-blocks N] [-duration D] <experiment-id>...
//	lnvm-bench all
//
// Experiment ids: table1, fig4, fig5, fig6, fig7, fig8, the ablation
// studies (ablate-*), and fleet, lanes, lifetime, wa and wa-e2e; -list
// prints them all. Output is plain text, one section per table/figure,
// with the paper's reference values inline.
//
// -blocks scales every experiment's device. Each size in the experiments is
// stated at the default 24 blocks per plane: wa's 8-block device runs 16
// blocks at -blocks 48.
//
// The profiling flags (-cpuprofile, -memprofile, -trace) cover the whole
// invocation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"syscall"
	"time"

	"repro/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options holds lnvm-bench's flag values.
type options struct {
	list, quick                       bool
	blocks                            int
	duration                          time.Duration
	seed                              int64
	cpuprofile, memprofile, traceFile string
}

// flags declares lnvm-bench's flags on a new set that reports to stderr.
func flags(stderr io.Writer) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("lnvm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	fs.BoolVar(&o.quick, "quick", false, "shrink sweeps for a fast smoke run")
	fs.IntVar(&o.blocks, "blocks", 0, "blocks per plane of every experiment's device (0 = default 24; smaller devices scale by N/24)")
	fs.DurationVar(&o.duration, "duration", 0, "virtual measurement window per data point (0 = default)")
	fs.Int64Var(&o.seed, "seed", 0, "simulation seed (0 = default)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile at exit to this file")
	fs.StringVar(&o.traceFile, "trace", "", "write a runtime execution trace to this file")
	return fs, o
}

// run is main with its arguments, streams and exit code as values, so a test
// can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs, o := flags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "lnvm-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "lnvm-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "lnvm-bench: -trace: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(stderr, "lnvm-bench: -trace: %v\n", err)
			return 1
		}
		defer trace.Stop()
	}
	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "lnvm-bench: -memprofile: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC() // flush final allocations into the profile
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "lnvm-bench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	if o.list {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "usage: lnvm-bench [-quick] [-blocks N] [-duration D] <experiment-id>... | all | -list")
		return 2
	}
	opts := harness.Options{
		BlocksPerPlane: o.blocks,
		Duration:       o.duration,
		Quick:          o.quick,
		Seed:           o.seed,
	}

	// Resolve every id before running anything: a typo in the last one must
	// not cost the minutes the ones before it take.
	var exps []harness.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		exps = harness.All()
	} else {
		for _, id := range ids {
			e, ok := harness.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "lnvm-bench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		fmt.Fprintf(stdout, "\n#### %s — %s\n", e.ID, e.Title)
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "lnvm-bench: %s: %v\n", e.ID, err)
			return 1
		}
		rep.WriteTo(stdout)
		fmt.Fprintf(stdout, "\n[%s completed in %v wall time, peak RSS %d MB]\n",
			e.ID, time.Since(start).Round(time.Millisecond), peakRSSMB())
	}
	return 0
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
