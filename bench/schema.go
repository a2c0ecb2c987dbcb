package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// spec describes one metric. End-to-end metrics carry a regression bound
// (share of the parent's median); per-layer metrics name their layer and
// the (end-to-end metric on workload) they are expected to move.
type spec struct {
	name, unit, better string
	bound              float64
	layer, moves       string
}

// The virtual-clock metrics repeat exactly for a given seed. Their bounds
// cover the spread across seeds, because the acceptance runs draw a fresh
// seed each (see README.md, "Bounds").
var endToEnd = []spec{
	{name: "sim_kiops", unit: "kio/s", better: "higher", bound: 0.08},
	{name: "sim_read_p50_us", unit: "us", better: "lower", bound: 0.03},
	{name: "sim_read_p99_us", unit: "us", better: "lower", bound: 0.20},
	{name: "sim_p999_us", unit: "us", better: "lower", bound: 0.25},
	{name: "wa_media", unit: "ratio", better: "lower", bound: 0.07},
	{name: "host_ns_per_io", unit: "ns", better: "lower", bound: 0.25},
	{name: "host_cpu_ns_per_io", unit: "ns", better: "lower", bound: 0.25},
	{name: "allocs_per_io", unit: "count", better: "lower", bound: 0.15},
	{name: "alloc_bytes_per_io", unit: "B", better: "lower", bound: 0.15},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	onRR    = "randread-qd32"
	onMixed = "steady-mixed-qd32"
	onRaid  = "volume-raid10-128k"
	onLSM   = "lsm-readwhilewriting"
)

var perLayer = []spec{
	{name: "sim.spawns_per_kio", unit: "count", better: "lower", layer: "sim", moves: "host_ns_per_io on all workloads"},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower", layer: "sim", moves: "host_ns_per_io on " + onRR},

	{name: "nand.page_reads_per_io", unit: "count", better: "lower", layer: "nand", moves: "sim_kiops on " + onMixed + ", " + onLSM},
	{name: "nand.page_programs_per_io", unit: "count", better: "lower", layer: "nand", moves: "wa_media on " + onMixed + ", " + onLSM},
	{name: "nand.block_erases_per_kio", unit: "count", better: "lower", layer: "nand", moves: "wa_media, sim_kiops on " + onMixed + ", " + onLSM},
	{name: "nand.host_ns_per_page_program", unit: "ns", better: "lower", layer: "nand", moves: "host_ns_per_io, alloc_bytes_per_io, peak_rss_mb on " + onMixed + ", " + onRaid},
	{name: "nand.host_ns_per_page_read", unit: "ns", better: "lower", layer: "nand", moves: "host_ns_per_io on " + onMixed + ", " + onRaid},

	{name: "ocssd.vector_cmds_per_io", unit: "count", better: "lower", layer: "ocssd", moves: "host_ns_per_io, sim_kiops on " + onRaid},
	{name: "ocssd.sectors_per_vector", unit: "count", better: "higher", layer: "ocssd", moves: "host_ns_per_io, sim_kiops on " + onRaid},
	{name: "ocssd.flash_reads_per_io", unit: "count", better: "lower", layer: "ocssd", moves: "sim_read_p50_us on " + onRR},
	{name: "ocssd.flash_programs_per_io", unit: "count", better: "lower", layer: "ocssd", moves: "wa_media on " + onMixed},
	{name: "ocssd.erases_per_kio", unit: "count", better: "lower", layer: "ocssd", moves: "sim_kiops on " + onMixed},
	{name: "ocssd.page_cache_hit_ratio", unit: "ratio", better: "higher", layer: "ocssd", moves: "sim_read_p50_us on " + onRR},
	{name: "ocssd.suspensions_per_kio", unit: "count", better: "lower", layer: "ocssd", moves: "sim_read_p99_us on " + onMixed},
	{name: "ocssd.read_retries_per_kio", unit: "count", better: "lower", layer: "ocssd", moves: "sim_read_p99_us on " + onMixed},
	{name: "ocssd.host_ns_per_vector", unit: "ns", better: "lower", layer: "ocssd", moves: "host_ns_per_io on " + onRR},

	{name: "pblk.read_sectors_per_io", unit: "count", better: "lower", layer: "pblk", moves: "host_ns_per_io on " + onRaid},
	{name: "pblk.write_sectors_per_io", unit: "count", better: "lower", layer: "pblk", moves: "host_ns_per_io on " + onRaid},
	{name: "pblk.cache_read_ratio", unit: "ratio", better: "higher", layer: "pblk", moves: "sim_read_p50_us on " + onMixed},
	{name: "pblk.gc_moved_per_user_sector", unit: "ratio", better: "lower", layer: "pblk", moves: "wa_media, sim_kiops on " + onMixed + ", " + onLSM},
	{name: "pblk.padded_per_user_sector", unit: "ratio", better: "lower", layer: "pblk", moves: "wa_media on " + onMixed + ", " + onLSM},
	{name: "pblk.ftl_wa", unit: "ratio", better: "lower", layer: "pblk", moves: "wa_media, sim_kiops on " + onMixed + ", " + onLSM + "; flat on " + onRR},
	{name: "pblk.gc_groups_recycled_per_kio", unit: "count", better: "lower", layer: "pblk", moves: "sim_p999_us on " + onMixed},
	{name: "pblk.gc_peak_inflight", unit: "count", better: "lower", layer: "pblk", moves: "sim_p999_us on " + onMixed},
	{name: "pblk.free_groups_min", unit: "count", better: "higher", layer: "pblk", moves: "sim_p999_us on " + onMixed},
	{name: "pblk.lane_sem_stalls_per_kio", unit: "count", better: "lower", layer: "pblk", moves: "sim_kiops on " + onMixed + ", " + onRaid},
	{name: "pblk.lane_waits_per_kio", unit: "count", better: "lower", layer: "pblk", moves: "sim_kiops on " + onMixed + ", " + onRaid},
	{name: "pblk.lane_peak_depth", unit: "count", better: "lower", layer: "pblk", moves: "sim_kiops on " + onMixed + ", " + onRaid},

	{name: "blockdev.requests_per_io", unit: "count", better: "lower", layer: "blockdev", moves: "sim_kiops, host_ns_per_io on " + onLSM},
	{name: "blockdev.bytes_per_io", unit: "B", better: "lower", layer: "blockdev", moves: "sim_kiops, host_ns_per_io on " + onLSM},
	{name: "blockdev.flushes_per_kio", unit: "count", better: "lower", layer: "blockdev", moves: "sim_kiops on " + onLSM},
	{name: "blockdev.trims_per_kio", unit: "count", better: "lower", layer: "blockdev", moves: "wa_media on " + onLSM},
	{name: "blockdev.queue_wait_p50_us", unit: "us", better: "lower", layer: "blockdev", moves: "sim_read_p50_us on " + onLSM},
	{name: "blockdev.service_p99_us", unit: "us", better: "lower", layer: "blockdev", moves: "sim_read_p99_us on all workloads"},
	{name: "blockdev.submit_host_ns_per_req", unit: "ns", better: "lower", layer: "blockdev", moves: "host_ns_per_io on all workloads"},
	{name: "blockdev.complete_host_ns_per_req", unit: "ns", better: "lower", layer: "blockdev", moves: "host_ns_per_io on all workloads"},

	{name: "volume.member_sectors_per_user_sector", unit: "ratio", better: "lower", layer: "volume", moves: "sim_kiops, host_ns_per_io on " + onRaid},
	{name: "volume.read_imbalance", unit: "ratio", better: "lower", layer: "volume", moves: "sim_read_p99_us on " + onRaid},
	{name: "volume.retried_per_kio", unit: "count", better: "lower", layer: "volume", moves: "sim_read_p99_us on " + onRaid},
	{name: "volume.parked_writes_per_kio", unit: "count", better: "lower", layer: "volume", moves: "sim_p999_us on " + onRaid},

	{name: "lsmdb.app_wa", unit: "ratio", better: "lower", layer: "lsmdb", moves: "wa_media, sim_kiops on " + onLSM},
	{name: "lsmdb.wal_bytes_per_user_byte", unit: "ratio", better: "lower", layer: "lsmdb", moves: "wa_media on " + onLSM},
	{name: "lsmdb.flush_bytes_per_user_byte", unit: "ratio", better: "lower", layer: "lsmdb", moves: "wa_media on " + onLSM},
	{name: "lsmdb.compaction_write_per_user_byte", unit: "ratio", better: "lower", layer: "lsmdb", moves: "wa_media, sim_kiops on " + onLSM},
	{name: "lsmdb.compaction_read_per_user_byte", unit: "ratio", better: "lower", layer: "lsmdb", moves: "sim_kiops on " + onLSM},
	{name: "lsmdb.block_cache_hit_ratio", unit: "ratio", better: "higher", layer: "lsmdb", moves: "sim_read_p50_us on " + onLSM},
	{name: "lsmdb.bloom_skips_per_get", unit: "count", better: "higher", layer: "lsmdb", moves: "sim_read_p50_us on " + onLSM},
	{name: "lsmdb.write_stalls_per_kop", unit: "count", better: "lower", layer: "lsmdb", moves: "sim_p999_us on " + onLSM},
	{name: "lsmdb.syncs_per_kop", unit: "count", better: "lower", layer: "lsmdb", moves: "sim_read_p99_us on " + onLSM},
	{name: "lsmdb.compactions", unit: "count", better: "lower", layer: "lsmdb", moves: "sim_read_p99_us, sim_p999_us on " + onLSM},
	{name: "lsmdb.flushes", unit: "count", better: "lower", layer: "lsmdb", moves: "sim_read_p99_us, sim_p999_us on " + onLSM},
	{name: "lsmdb.space_amp", unit: "ratio", better: "lower", layer: "lsmdb", moves: "live_heap_mb on " + onLSM},
	{name: "lsmdb.get_hit_host_ns", unit: "ns", better: "lower", layer: "lsmdb", moves: "host_ns_per_io on " + onLSM},
	{name: "lsmdb.put_nowal_host_ns", unit: "ns", better: "lower", layer: "lsmdb", moves: "host_ns_per_io on " + onLSM},
}

// ladderRungs are the progressively taller stacks of the stack ladder.
var ladderRungs = []string{"nullblk", "ocssd", "pblk", "volume"}

func init() {
	for _, rung := range ladderRungs {
		moves := "host_ns_per_io on every workload whose top layer is at or above " + rung
		perLayer = append(perLayer,
			spec{name: "ladder." + rung + ".host_ns_per_io", unit: "ns", better: "lower", layer: "ladder", moves: moves},
			spec{name: "ladder." + rung + ".allocs_per_io", unit: "count", better: "lower", layer: "ladder", moves: "allocs_per_io, same workloads"},
			spec{name: "ladder." + rung + ".sim_p50_us", unit: "us", better: "lower", layer: "ladder", moves: "sim_read_p50_us, same workloads"},
		)
	}
	perLayer = append(perLayer, spec{name: "trace.overhead_ratio", unit: "ratio", better: "lower", layer: "trace",
		moves: "none: the cost of tracing itself, traced / untraced host_ns_per_io"})
}

// metrics holds one run's values by name.
type metrics map[string]float64

// unknownNames lists the metrics in m that specs does not declare: a
// misspelt name would otherwise be dropped and its metric reported as 0.
func unknownNames(specs []spec, m metrics) []string {
	known := make(map[string]bool, len(specs))
	for _, s := range specs {
		known[s.name] = true
	}
	var bad []string
	for name := range m {
		if !known[name] {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// resultJSON renders the run's result line: the metrics of specs, in
// order, each with its unit. Per-layer metrics a workload does not
// exercise report 0.
func resultJSON(specs []spec, m metrics, attempted, failed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, failed == 0, attempted, failed)
	for i, s := range specs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, s.name, strconv.FormatFloat(m[s.name], 'g', -1, 64), s.unit)
	}
	b.WriteString("}}")
	return b.String()
}
