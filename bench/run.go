package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/bench/tracedev"
	"repro/internal/lightnvm"
	"repro/internal/sim"
	"repro/internal/stats"
)

// passOpts sizes one pass over a workload.
type passOpts struct {
	seed int64
	// scale multiplies the measured slice length (1 = nominal); set-up
	// and warm-up are not scaled.
	scale float64
	// setupScale shrinks preconditioning and warm-up too (0 = 1); only
	// the transparency test uses it.
	setupScale float64
	traced     bool
	// cal times the host-speed kernel between measured slices; nil leaves
	// host times raw.
	cal *calibrator
}

// passResult is everything one pass measured.
type passResult struct {
	setupS float64

	total sliceOut
	// Per measured slice: wall and CPU nanoseconds per user operation.
	wallPerOp, cpuPerOp []float64

	mallocs, allocBytes uint64
	liveHeap            uint64

	before, after counters // around the measured phase
	freeGroupsMin int

	attempted, failed int64
	firstErr          error

	// hostSpeed is the measured phase's host-speed factor (calib.go).
	hostSpeed float64

	st *stack
}

// runPass builds the workload's stack in a fresh simulation, warms it up,
// measures the sliced phase and verifies the stamped data.
func runPass(w *workload, o passOpts) (res *passResult, err error) {
	if o.setupScale == 0 {
		o.setupScale = 1
	}
	env := sim.NewEnv(o.seed)
	st := &stack{env: env, setupScale: o.setupScale}
	if o.traced {
		st.tracer = tracedev.New(maxSpans)
	}
	res = &passResult{st: st, freeGroupsMin: -1}
	env.Go("bench", func(p *sim.Proc) { err = res.run(p, w, o) })
	defer func() {
		lightnvm.UnregisterAll()
		if r := recover(); r != nil {
			err = fmt.Errorf("panic after %d attempted operations: %v", res.total.ops, r)
		}
	}()
	env.Run()
	return res, err
}

func (res *passResult) run(p *sim.Proc, w *workload, o passOpts) error {
	st, cal := res.st, o.cal
	if err := w.build(p, st, o.seed); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if err := checkRSS("after device build and precondition"); err != nil {
		return err
	}
	warmLen := max(int64(float64(w.sliceLen)*o.setupScale), 1)
	for i := 0; i < w.warmSlices; i++ {
		out, err := w.slice(p, st, o.seed, -1-i, warmLen)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		res.attempted += out.ops
		res.failed += out.errors
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res.before = st.snapshot()
	res.setupS = time.Since(processStart).Seconds()

	sliceLen := max(int64(float64(w.sliceLen)*o.scale), 1)
	cal.sample()
	for i := 0; i < w.slices; i++ {
		if st.tracer != nil {
			st.tracer.Enabled = true
		}
		cpu0, t0 := cpuNow(), time.Now()
		out, err := w.slice(p, st, o.seed, i, sliceLen)
		wall, cpu := time.Since(t0), cpuNow()-cpu0
		if st.tracer != nil {
			st.tracer.Enabled = false
		}
		if err != nil {
			return fmt.Errorf("slice %d: %w", i, err)
		}
		if out.ops == 0 {
			return fmt.Errorf("slice %d completed no operations", i)
		}
		res.total.merge(&out)
		res.wallPerOp = append(res.wallPerOp, float64(wall.Nanoseconds())/float64(out.ops))
		res.cpuPerOp = append(res.cpuPerOp, float64(cpu.Nanoseconds())/float64(out.ops))
		// Outside the timers: collect, so no slice inherits the previous
		// one's garbage, time the calibration kernel, and sample the state
		// that is not cumulative.
		runtime.GC()
		cal.sample()
		if f := st.minFreeGroups(); res.freeGroupsMin < 0 || f < res.freeGroupsMin {
			res.freeGroupsMin = f
		}
		if err := checkRSS(fmt.Sprintf("after measured slice %d", i)); err != nil {
			return err
		}
	}
	res.hostSpeed = cal.factor()
	runtime.ReadMemStats(&ms1)
	res.after = st.snapshot()
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.liveHeap = ms1.HeapAlloc

	res.attempted += res.total.ops
	res.failed += res.total.errors
	a, f, verr := st.verify(p, o.seed)
	res.attempted += a
	res.failed += f
	res.firstErr = verr
	return nil
}

// hostNsPerIO is the median slice's wall time per operation at reference
// host speed.
func (res *passResult) hostNsPerIO() float64 { return median(res.wallPerOp) / res.hostSpeed }

// endToEndMetrics derives the twelve end-to-end metrics from a pass.
func (res *passResult) endToEndMetrics() (metrics, error) {
	m := metrics{}
	t := &res.total
	var all stats.Hist // merged into a fresh histogram: a copy would share readLat's buckets
	all.Merge(&t.readLat)
	all.Merge(&t.writeLat)
	m["sim_kiops"] = float64(t.ops) / t.elapsed.Seconds() / 1000
	m["sim_read_p50_us"] = quantileUS(&t.readLat, 50)
	m["sim_read_p99_us"] = quantileUS(&t.readLat, 99)
	m["sim_p999_us"] = quantileUS(&all, 99.9)

	// Media bytes programmed per user byte written: over the measured
	// phase, or over the whole run for a workload that writes nothing
	// while measured.
	pageBytes := int64(res.st.ocssds[0].Geometry().SectorsPerPage * res.st.ocssds[0].Geometry().SectorSize)
	programs, userBytes := res.after.nand.PagePrograms-res.before.nand.PagePrograms, t.writeBytes
	if userBytes == 0 {
		programs, userBytes = res.after.nand.PagePrograms, res.st.userBytesSetup
	}
	m["wa_media"] = ratio(programs*pageBytes, userBytes)

	m["host_ns_per_io"] = res.hostNsPerIO()
	m["host_cpu_ns_per_io"] = median(res.cpuPerOp) / res.hostSpeed
	m["allocs_per_io"] = float64(res.mallocs) / float64(t.ops)
	m["alloc_bytes_per_io"] = float64(res.allocBytes) / float64(t.ops)
	m["live_heap_mb"] = float64(res.liveHeap) / (1 << 20)
	hwm, err := procStatusKB("VmHWM")
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = float64(hwm) / 1024
	m["setup_s"] = res.setupS
	return m, nil
}
