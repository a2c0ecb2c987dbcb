// Package harness defines one runnable experiment per table and figure of
// the paper's evaluation (§5), plus ablations of the design choices called
// out in DESIGN.md. Each experiment builds its devices, runs the paper's
// workload in virtual time, and prints rows comparable to the published ones.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/blockdev"
	"repro/internal/fio"
	"repro/internal/lightnvm"
	"repro/internal/nand"
	"repro/internal/nvmedev"
	"repro/internal/ocssd"
	"repro/internal/pblk"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// newRand returns a deterministic random source for harness-side draws.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// failure is what check panics with: an error an experiment cannot go on
// past — a device too small for the options, an I/O error — as opposed to
// a bug. Experiments run inside simulation processes, which cannot return;
// the register wrapper turns a failure, and nothing else, back into the
// error Experiment.Run returns.
type failure struct{ error }

func check(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// mustRun executes a fio job; a job the engine rejects and a job that
// finished with I/O errors both fail the experiment.
func mustRun(p *sim.Proc, dev blockdev.Device, job fio.Job) *fio.Result {
	r, err := fio.Run(p, dev, job)
	if err == nil && r.Errors > 0 {
		err = fmt.Errorf("fio job %q: %d of its I/Os failed", job.Name, r.Errors)
	}
	check(err)
	return r
}

// alignDown rounds n down to a multiple of unit (offsets and region sizes
// derived from capacities must stay request-aligned).
func alignDown(n, unit int64) int64 { return n / unit * unit }

// Options scales experiments. The zero value is completed by Defaults.
type Options struct {
	// BlocksPerPlane scales the simulated drive; the paper's Westlake has
	// 1067 (2 TB) — the default keeps the same structure with less host
	// memory.
	BlocksPerPlane int
	// Duration is the virtual measurement window per data point.
	Duration time.Duration
	// Quick shrinks sweeps for smoke runs.
	Quick bool
	Seed  int64
}

// Defaults fills unset options.
func Defaults(o Options) Options {
	if o.BlocksPerPlane == 0 {
		o.BlocksPerPlane = 24
	}
	if o.Duration == 0 {
		o.Duration = 100 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options, w io.Writer) error
}

var registry []Experiment

// register adds an experiment, its Run wrapped by guarded.
func register(e Experiment) {
	e.Run = guarded(e.Run)
	registry = append(registry, e)
}

// guarded is where a check failure — raised in the experiment or in one of
// its processes — becomes Run's error. Any other panic is a bug and goes on
// with its trace.
func guarded(run func(Options, io.Writer) error) func(Options, io.Writer) error {
	return func(o Options, w io.Writer) (err error) {
		defer func() {
			r := recover()
			v := r
			if pp, ok := r.(sim.ProcPanic); ok {
				v = pp.Value
			}
			if f, ok := v.(failure); ok {
				err = f.error
			} else if r != nil {
				panic(r)
			}
		}()
		return run(o, w)
	}
}

// drive is the harness's closed loop: it keeps q's depth of requests in
// flight, drawing one from next as each slot frees up — nil, from then on,
// ends the supply — and handing every completed request to done; it returns
// when the last has completed.
func drive(p *sim.Proc, q blockdev.Queue, next func() *blockdev.Request, done func(*blockdev.Request)) {
	idle := p.Env().NewEvent()
	outstanding := 0
	var refill func()
	complete := func(r *blockdev.Request) {
		done(r)
		outstanding--
		refill()
		if outstanding == 0 {
			idle.Signal()
		}
	}
	refill = func() {
		for outstanding < q.Depth() {
			r := next()
			if r == nil {
				return
			}
			r.OnComplete = complete
			outstanding++
			q.Submit(r)
		}
	}
	refill()
	if outstanding > 0 {
		p.Wait(idle)
	}
	q.Drain(p)
}

// All lists registered experiments sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared builders ----

// wearFreeConfig is the device every characterization experiment runs on:
// default timing and media with the page cache on, and wear off —
// characterization runs should not age the media. Callers adjust the
// fields their experiment varies.
func wearFreeConfig(geo ppa.Geometry, seed int64) ocssd.Config {
	m := nand.DefaultConfig()
	m.PECycleLimit = 0
	m.WearLatencyFactor = 0
	return ocssd.Config{Geometry: geo, Timing: ocssd.DefaultTiming(), Media: m, PageCache: true, Seed: seed}
}

// newOCSSD builds a Westlake-like open-channel SSD scaled by the options.
func newOCSSD(o Options) (*sim.Env, *ocssd.Device, *lightnvm.Device, error) {
	env := sim.NewEnv(o.Seed)
	dev, err := ocssd.New(env, wearFreeConfig(ocssd.WestlakeGeometry(o.BlocksPerPlane), o.Seed))
	if err != nil {
		return nil, nil, nil, err
	}
	return env, dev, lightnvm.Register("ocssd0", dev), nil
}

// newRaw creates a raw (FTL-less) target on PUs [begin, end) of ln: the
// device under a direct-PPA fio job.
func newRaw(p *sim.Proc, ln *lightnvm.Device, name string, begin, end int) *lightnvm.Raw {
	t, err := ln.CreateTarget(p, "raw", name, lightnvm.PURange{Begin: begin, End: end}, nil)
	check(err)
	return t.(*lightnvm.Raw)
}

// newPblk instantiates a pblk target with the given active PU count
// (0 = all).
func newPblk(p *sim.Proc, ln *lightnvm.Device, activePUs int) (*pblk.Pblk, error) {
	return pblk.New(p, ln, fmt.Sprintf("pblk-%d", activePUs), pblk.Config{ActivePUs: activePUs})
}

// newPblkOn builds the full OCSSD + LightNVM + pblk stack inside an
// existing simulation environment.
func newPblkOn(p *sim.Proc, env *sim.Env, o Options, activePUs int) (*pblk.Pblk, error) {
	dev, err := ocssd.New(env, wearFreeConfig(ocssd.WestlakeGeometry(o.BlocksPerPlane), o.Seed))
	if err != nil {
		return nil, err
	}
	ln := lightnvm.Register("ocssd-embed", dev)
	return newPblk(p, ln, activePUs)
}

// newBaseline builds the NVMe block-SSD baseline scaled to a comparable
// capacity.
func newBaseline(p *sim.Proc, env *sim.Env, o Options) (*nvmedev.Device, error) {
	cfg := nvmedev.DefaultConfig(o.BlocksPerPlane * 2) // 1/4 the PUs, 2x blocks
	cfg.Media.PECycleLimit = 0
	cfg.Media.WearLatencyFactor = 0
	cfg.Seed = o.Seed
	return nvmedev.New(p, env, cfg)
}

// ---- output helpers ----

// table renders aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// pad widens s to w columns; a column is a rune, so a multibyte µ is one.
func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

func mb(v float64) string { return fmt.Sprintf("%.0f", v) }

func us(d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(d)/float64(time.Microsecond))
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
