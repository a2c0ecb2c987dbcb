// Command lnvm-fio is a small fio-like front end over the simulator: it
// builds an OCSSD + pblk stack (or the NVMe baseline) and runs one job
// described by flags, printing throughput and the latency distribution.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/blockdev"
	"repro/internal/fio"
	"repro/internal/lightnvm"
	"repro/internal/nvmedev"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit code as values, so a test
// can drive it. A bad command line or job exits 2, a device that cannot be
// built or prepared exits 1; either prints one line on stderr and nothing on
// stdout.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lnvm-fio", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		device   = fs.String("device", "pblk", "target device: pblk | nvme")
		rw       = fs.String("rw", "randread", "pattern: read|write|randread|randwrite|randrw")
		bs       = fs.Int("bs", 4096, "request size in bytes")
		qd       = fs.Int("iodepth", 1, "queue depth")
		numjobs  = fs.Int("numjobs", 1, "parallel jobs")
		runtime  = fs.Duration("runtime", 100*time.Millisecond, "virtual runtime")
		mixread  = fs.Int("rwmixread", 50, "read percent for randrw")
		rate     = fs.Float64("rate", 0, "write rate limit MB/s (0 = unlimited)")
		blocks   = fs.Int("blocks", 24, "device scale: blocks per plane")
		active   = fs.Int("active_pus", 0, "pblk active write PUs (0 = all)")
		prepFrac = fs.Float64("prepare", 0.5, "fraction of capacity to prefill before reading")
		seed     = fs.Int64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "lnvm-fio: "+format+"\n", a...)
		return code
	}

	if *bs <= 0 {
		return fail(2, "-bs must be positive, got %d", *bs)
	}
	if !(*prepFrac >= 0 && *prepFrac <= 1) {
		return fail(2, "-prepare must be a fraction in [0, 1], got %g", *prepFrac)
	}

	var pattern fio.Pattern
	switch *rw {
	case "read":
		pattern = fio.SeqRead
	case "write":
		pattern = fio.SeqWrite
	case "randread":
		pattern = fio.RandRead
	case "randwrite":
		pattern = fio.RandWrite
	case "randrw":
		pattern = fio.RandRW
	default:
		return fail(2, "unknown rw %q", *rw)
	}
	if *device != "pblk" && *device != "nvme" {
		return fail(2, "unknown device %q", *device)
	}

	env := sim.NewEnv(*seed)
	var res *fio.Result
	code := 0
	env.Go("main", func(p *sim.Proc) {
		var dev blockdev.Device
		var stop func(*sim.Proc) error
		if *device == "pblk" {
			raw, err := ocssd.New(env, ocssd.DefaultConfig(*blocks))
			if err != nil {
				code = fail(1, "%v", err)
				return
			}
			k, err := pblk.New(p, lightnvm.Register("nvme0n1", raw), "pblk0", pblk.Config{ActivePUs: *active})
			if err != nil {
				code = fail(1, "%v", err)
				return
			}
			dev, stop = k, k.Stop
		} else {
			d, err := nvmedev.New(p, env, nvmedev.DefaultConfig(*blocks*2))
			if err != nil {
				code = fail(1, "%v", err)
				return
			}
			dev, stop = d, d.Stop
		}
		defer stop(p)
		needsData := pattern == fio.SeqRead || pattern == fio.RandRead || pattern == fio.RandRW
		size := dev.Capacity()
		if needsData && *prepFrac > 0 {
			// Keep the prepared region request-aligned.
			size = int64(float64(dev.Capacity())**prepFrac) / int64(*bs) * int64(*bs)
			if size == 0 {
				code = fail(2, "-prepare %g of %dB leaves no complete %dB request", *prepFrac, dev.Capacity(), *bs)
				return
			}
			if err := fio.Prepare(p, dev, 0, size); err != nil {
				code = fail(1, "prepare: %v", err)
				return
			}
		}
		var err error
		res, err = fio.Run(p, dev, fio.Job{
			Name: "job1", Pattern: pattern, BS: *bs, QD: *qd, NumJobs: *numjobs,
			Size: size, RWMixRead: *mixread, WriteRateMBps: *rate,
			Runtime: *runtime, Seed: *seed,
		})
		if err != nil {
			code = fail(2, "%v", err)
		}
	})
	env.Run()
	if code != 0 {
		return code
	}

	fmt.Fprintf(stdout, "job1: (g=0): rw=%s, bs=%d, iodepth=%d, numjobs=%d, runtime=%v (virtual)\n",
		*rw, *bs, *qd, *numjobs, *runtime)
	if res.Reads > 0 {
		s := res.ReadLat.Summarize()
		fmt.Fprintf(stdout, "  read : io=%dMB, bw=%.1fMB/s, iops=%.0f\n", res.ReadBytes>>20, res.ReadMBps(), float64(res.Reads)/res.Elapsed.Seconds())
		fmt.Fprintf(stdout, "    lat: %s\n", s)
	}
	if res.Writes > 0 {
		s := res.WriteLat.Summarize()
		fmt.Fprintf(stdout, "  write: io=%dMB, bw=%.1fMB/s, iops=%.0f\n", res.WriteBytes>>20, res.WriteMBps(), float64(res.Writes)/res.Elapsed.Seconds())
		fmt.Fprintf(stdout, "    lat: %s\n", s)
	}
	if res.Errors > 0 {
		fmt.Fprintf(stdout, "  errors: %d\n", res.Errors)
	}
	return 0
}
