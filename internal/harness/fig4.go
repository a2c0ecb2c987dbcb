package harness

import (
	"fmt"

	"repro/internal/fio"
	"repro/internal/sim"
)

func init() {
	register("fig4", "Figure 4: SR/RR throughput and latency vs queue depth and block size", runFig4)
}

// runFig4 reproduces the uniform read workloads: data is prepared with
// pblk striping across all 128 PUs, then sequential and random reads sweep
// block sizes 4K..256K at queue depths 1..16. The paper's shape: SR
// reaches ~4 GB/s at 256K QD16 (~1 ms latency); 4K QD1 tops out around
// 105 MB/s at ~40 µs.
func runFig4(o Options) *Report {
	env, _, ln := newOCSSD(o)
	blockSizes := []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	depths := []int{1, 2, 4, 8, 16}
	if o.Quick {
		blockSizes = []int{4 << 10, 64 << 10, 256 << 10}
		depths = []int{1, 16}
	}

	type point struct {
		mbps  float64
		avgUS float64
		p99US float64
	}
	results := map[string]map[[2]int]point{"SR": {}, "RR": {}}

	env.Go("fig4", func(p *sim.Proc) {
		k := newPblk(p, ln, 0)
		defer k.Stop(p)
		// Paper prepares 100 GB over the full device; scale to half the
		// exported capacity.
		prep := alignDown(k.Capacity()/2, 256<<10)
		check(fio.Prepare(p, k, 0, prep))
		for _, pat := range []fio.Pattern{fio.SeqRead, fio.RandRead} {
			name := "SR"
			if pat == fio.RandRead {
				name = "RR"
			}
			for _, qd := range depths {
				for _, bs := range blockSizes {
					r := mustRun(p, k, fio.Job{
						Name:    fmt.Sprintf("%s-%d-%d", name, qd, bs),
						Pattern: pat, BS: bs, QD: qd,
						Size: prep, Runtime: o.Duration, Seed: o.Seed,
					})
					results[name][[2]int{qd, bs}] = point{
						mbps:  r.ReadMBps(),
						avgUS: usF(r.ReadLat.Mean()),
						p99US: usF(r.ReadLat.Percentile(99)),
					}
				}
			}
		}
	})
	env.Run()

	rep := &Report{}
	var s *section
	for _, name := range []string{"SR", "RR"} {
		header := []string{"bs\\qd"}
		for _, qd := range depths {
			header = append(header, fmt.Sprintf("QD%d", qd))
		}
		t := rep.section(fmt.Sprintf("Figure 4 %s: throughput (MB/s)", name)).table(header...)
		for _, bs := range blockSizes {
			row := []cell{label(fmt.Sprintf("%dK", bs/1024))}
			for _, qd := range depths {
				row = append(row, mb(results[name][[2]int{qd, bs}].mbps))
			}
			t.add(row...)
		}

		s = rep.section(fmt.Sprintf("Figure 4 %s: average latency (us, p99 in parens)", name))
		t2 := s.table(header...)
		for _, bs := range blockSizes {
			row := []cell{label(fmt.Sprintf("%dK", bs/1024))}
			for _, qd := range depths {
				c := results[name][[2]int{qd, bs}]
				row = append(row, num("%.0f (%.0f)", c.avgUS, c.p99US))
			}
			t2.add(row...)
		}
	}
	s.note("", "paper reference: SR 256K QD16 ~4GB/s @ ~970us avg / 1200us p99; 4K QD1 ~105MB/s @ ~40us")
	return rep
}
