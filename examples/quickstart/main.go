// Quickstart: create a simulated open-channel SSD, register it with the
// LightNVM subsystem, instantiate a pblk target, and use it as an ordinary
// block device — write, flush, read back, inspect the FTL counters.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/lightnvm"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the tour; it prints to w.
func run(w io.Writer) error {
	// Everything runs on a virtual clock: device latencies are simulated
	// deterministically, so this program finishes in milliseconds of wall
	// time while reporting microsecond-accurate device behaviour.
	env := sim.NewEnv(1)

	// 1. An open-channel SSD: 16 channels x 8 PUs of MLC NAND (Westlake
	//    geometry, scaled down to 24 blocks per plane ≈ 52 GB).
	dev, err := ocssd.New(env, ocssd.DefaultConfig(ocssd.WestlakeGeometry(24)))
	if err != nil {
		return err
	}

	// 2. Register with the LightNVM subsystem; this exposes geometry and
	//    the media manager that hands each target its PUs.
	ln := lightnvm.Register("nvme0n1", dev)
	fmt.Fprintln(w, "registered:", ln.Name(), ln.Geometry())

	env.Go("main", func(p *sim.Proc) {
		// 3. Create a pblk target: a full host-side FTL exposing the SSD
		//    as a block device (the `nvm create -t pblk` analogue). It
		//    reserves every PU of the device until it stops.
		var k *pblk.Pblk
		if k, err = pblk.New(p, ln, "pblk0", pblk.Config{}); err != nil {
			return
		}
		fmt.Fprintf(w, "pblk0: %d MB usable, %d active write PUs\n",
			k.Capacity()>>20, k.ActivePUs())

		// 4. Block I/O: write a record, flush for durability, read back.
		record := bytes.Repeat([]byte("open-channel "), 316)[:4096]
		start := env.Now()
		if err = k.Write(p, 0, record, int64(len(record))); err != nil {
			return
		}
		fmt.Fprintf(w, "write acknowledged in %v (buffered in the host write buffer)\n", env.Now()-start)

		start = env.Now()
		if err = k.Flush(p); err != nil {
			return
		}
		fmt.Fprintf(w, "flush (padding to a full flash page) took %v\n", env.Now()-start)

		got := make([]byte, len(record))
		start = env.Now()
		if err = k.Read(p, 0, got, int64(len(got))); err != nil {
			return
		}
		fmt.Fprintf(w, "read back in %v, content ok: %v\n", env.Now()-start, bytes.Equal(got, record))

		// 5. FTL introspection.
		fmt.Fprintf(w, "stats: %d sectors written, %d padded, %d flushes, %d free block groups\n",
			k.Stats.UserWrites, k.Stats.PaddedSectors, k.Stats.Flushes, k.FreeGroups())

		err = k.Stop(p)
	})
	env.Run()
	return err
}
