// Command lnvm-fio is a small fio-like front end over the simulator: it
// builds an OCSSD + pblk stack (or the NVMe baseline) and runs one job
// described by flags, printing throughput and the latency distribution.
package main

import (
	"flag"
	"fmt"
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

func main() {
	var (
		device   = flag.String("device", "pblk", "target device: pblk | nvme")
		rw       = flag.String("rw", "randread", "pattern: read|write|randread|randwrite|randrw")
		bs       = flag.Int("bs", 4096, "request size in bytes")
		qd       = flag.Int("iodepth", 1, "queue depth")
		numjobs  = flag.Int("numjobs", 1, "parallel jobs")
		runtime  = flag.Duration("runtime", 100*time.Millisecond, "virtual runtime")
		mixread  = flag.Int("rwmixread", 50, "read percent for randrw")
		rate     = flag.Float64("rate", 0, "write rate limit MB/s (0 = unlimited)")
		blocks   = flag.Int("blocks", 12, "device scale: blocks per plane")
		active   = flag.Int("active_pus", 0, "pblk active write PUs (0 = all)")
		prepFrac = flag.Float64("prepare", 0.5, "fraction of capacity to prefill before reading")
		seed     = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	if *bs <= 0 {
		fmt.Fprintf(os.Stderr, "lnvm-fio: -bs must be positive, got %d\n", *bs)
		os.Exit(2)
	}
	if !(*prepFrac >= 0 && *prepFrac <= 1) {
		fmt.Fprintf(os.Stderr, "lnvm-fio: -prepare must be a fraction in [0, 1], got %g\n", *prepFrac)
		os.Exit(2)
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
		fmt.Fprintf(os.Stderr, "lnvm-fio: unknown rw %q\n", *rw)
		os.Exit(2)
	}

	env := sim.NewEnv(*seed)
	var res *fio.Result
	env.Go("main", func(p *sim.Proc) {
		var dev blockdev.Device
		var stop func(*sim.Proc)
		switch *device {
		case "pblk":
			raw, err := ocssd.New(env, ocssd.DefaultConfig(*blocks))
			if err != nil {
				fmt.Fprintln(os.Stderr, "lnvm-fio:", err)
				os.Exit(1)
			}
			ln := lightnvm.Register("nvme0n1", raw)
			k, err := pblk.New(p, ln, "pblk0", pblk.Config{ActivePUs: *active})
			if err != nil {
				fmt.Fprintln(os.Stderr, "lnvm-fio:", err)
				os.Exit(1)
			}
			dev, stop = k, func(pp *sim.Proc) { k.Stop(pp) }
		case "nvme":
			d, err := nvmedev.New(p, env, nvmedev.DefaultConfig(*blocks*2))
			if err != nil {
				fmt.Fprintln(os.Stderr, "lnvm-fio:", err)
				os.Exit(1)
			}
			dev, stop = d, func(pp *sim.Proc) { d.Stop(pp) }
		default:
			fmt.Fprintf(os.Stderr, "lnvm-fio: unknown device %q\n", *device)
			os.Exit(2)
		}
		needsData := pattern == fio.SeqRead || pattern == fio.RandRead || pattern == fio.RandRW
		size := dev.Capacity()
		if needsData && *prepFrac > 0 {
			// Keep the prepared region request-aligned.
			size = int64(float64(dev.Capacity())**prepFrac) / int64(*bs) * int64(*bs)
			if size == 0 {
				fmt.Fprintf(os.Stderr, "lnvm-fio: -prepare %g of %dB leaves no complete %dB request\n",
					*prepFrac, dev.Capacity(), *bs)
				os.Exit(2)
			}
			if err := fio.Prepare(p, dev, 0, size); err != nil {
				fmt.Fprintln(os.Stderr, "lnvm-fio: prepare:", err)
				os.Exit(1)
			}
		}
		var err error
		res, err = fio.Run(p, dev, fio.Job{
			Name: "job1", Pattern: pattern, BS: *bs, QD: *qd, NumJobs: *numjobs,
			Size: size, RWMixRead: *mixread, WriteRateMBps: *rate,
			Runtime: *runtime, Seed: *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lnvm-fio:", err)
			os.Exit(2)
		}
		stop(p)
	})
	env.Run()

	fmt.Printf("job1: (g=0): rw=%s, bs=%d, iodepth=%d, numjobs=%d, runtime=%v (virtual)\n",
		*rw, *bs, *qd, *numjobs, *runtime)
	if res.Reads > 0 {
		s := res.ReadLat.Summarize()
		fmt.Printf("  read : io=%dMB, bw=%.1fMB/s, iops=%.0f\n", res.ReadBytes>>20, res.ReadMBps(), float64(res.Reads)/res.Elapsed.Seconds())
		fmt.Printf("    lat: %s\n", s)
	}
	if res.Writes > 0 {
		s := res.WriteLat.Summarize()
		fmt.Printf("  write: io=%dMB, bw=%.1fMB/s, iops=%.0f\n", res.WriteBytes>>20, res.WriteMBps(), float64(res.Writes)/res.Elapsed.Seconds())
		fmt.Printf("    lat: %s\n", s)
	}
	if res.Errors > 0 {
		fmt.Printf("  errors: %d\n", res.Errors)
	}
}
