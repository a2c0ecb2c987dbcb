package fio

import (
	"fmt"

	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// Bench-only: PreparePPA sequentially programs the first `blocks` block
// groups of each listed PU with synthetic data, straight at the device.
// Only the benchmark module calls it (the ladder's bare-device rung);
// everything else prepares a lightnvm raw target with Prepare.
func PreparePPA(p *sim.Proc, dev *ocssd.Device, pus []int, blocks int) error {
	g := dev.Geometry()
	for _, gpu := range pus {
		ch, pu := dev.Format().PUAddr(gpu)
		for b := 0; b < blocks; b++ {
			for pg := 0; pg < g.PagesPerBlock; pg++ {
				addrs := unitAddrs(g, ch, pu, b, pg)
				c := dev.Do(p, &ocssd.Vector{Op: ocssd.OpWrite, Addrs: addrs})
				if c.Failed() {
					return fmt.Errorf("fio: prepare pu%d blk%d pg%d: %v", gpu, b, pg, c.FirstErr())
				}
			}
		}
	}
	return nil
}

func unitAddrs(g ppa.Geometry, ch, pu, blk, page int) []ppa.Addr {
	addrs := make([]ppa.Addr, 0, g.PlanesPerPU*g.SectorsPerPage)
	for pl := 0; pl < g.PlanesPerPU; pl++ {
		for s := 0; s < g.SectorsPerPage; s++ {
			addrs = append(addrs, ppa.Addr{Ch: ch, PU: pu, Plane: pl, Block: blk, Page: page, Sector: s})
		}
	}
	return addrs
}
