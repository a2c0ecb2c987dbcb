// Package harness defines one runnable experiment per table and figure of
// the paper's evaluation (§5), plus ablations of the design choices called
// out in DESIGN.md. Each experiment builds its devices, runs the paper's
// workload in virtual time, and prints rows comparable to the published ones.
package harness

import (
	"bytes"
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

// checkIn is check for a step of the part of an experiment named name.
func checkIn(name string, err error) {
	if err != nil {
		check(fmt.Errorf("%s: %w", name, err))
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
	Run   func(Options) (*Report, error)
}

var registry []Experiment

// register adds an experiment; run sees the options completed by Defaults.
func register(id, title string, run func(Options) *Report) {
	withDefaults := func(o Options) *Report { return run(Defaults(o)) }
	registry = append(registry, Experiment{ID: id, Title: title, Run: guarded(withDefaults)})
}

// guarded is where a check failure — raised in the experiment or in one of
// its processes — becomes Run's error. Any other panic is a bug and goes on
// with its trace.
func guarded(run func(Options) *Report) func(Options) (*Report, error) {
	return func(o Options) (rep *Report, err error) {
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
		return run(o), nil
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
func newOCSSD(o Options) (*sim.Env, *ocssd.Device, *lightnvm.Device) {
	env := sim.NewEnv(o.Seed)
	dev, err := ocssd.New(env, wearFreeConfig(ocssd.WestlakeGeometry(o.BlocksPerPlane), o.Seed))
	check(err)
	return env, dev, lightnvm.Register("ocssd0", dev)
}

// newRaw mounts a raw (FTL-less) target on PUs [begin, end) of ln: the
// device under a direct-PPA fio job.
func newRaw(ln *lightnvm.Device, name string, begin, end int) *lightnvm.Raw {
	v, err := ln.Reserve(name, lightnvm.PURange{Begin: begin, End: end})
	check(err)
	return lightnvm.NewRaw(v)
}

// newPblk instantiates a pblk target with the given active PU count
// (0 = all).
func newPblk(p *sim.Proc, ln *lightnvm.Device, activePUs int) *pblk.Pblk {
	k, err := pblk.New(p, ln, fmt.Sprintf("pblk-%d", activePUs), pblk.Config{ActivePUs: activePUs})
	check(err)
	return k
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

// ---- reports ----

// Report is what an experiment returns: its sections in print order. Table
// cells keep the values they print, so a claim reads a number by (section,
// row, column) and never parses text. WriteTo prints it as lnvm-bench does.
type Report struct{ sections []*section }

// section is an optional "== title ==" header over tables and note lines, in
// print order: items holds *table and string. Notes are derived text for the
// reader; no claim reads them.
type section struct {
	title string
	items []any
}

// section appends a section; "" is the untitled one before the first header.
func (r *Report) section(title string) *section {
	s := &section{title: title}
	r.sections = append(r.sections, s)
	return s
}

func (s *section) table(header ...string) *table {
	t := &table{header: header}
	s.items = append(s.items, t)
	return t
}

// note appends lines of text; "" is a blank line.
func (s *section) note(lines ...string) {
	for _, l := range lines {
		s.items = append(s.items, l)
	}
}

// WriteTo renders r: each titled section as "\n== title ==\n", then its
// tables and note lines in order.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	for _, s := range r.sections {
		if s.title != "" {
			fmt.Fprintf(&b, "\n== %s ==\n", s.title)
		}
		for _, it := range s.items {
			if t, ok := it.(*table); ok {
				t.write(&b)
			} else {
				fmt.Fprintln(&b, it)
			}
		}
	}
	return b.WriteTo(w)
}

// cell is one table cell: its text and the values it was formatted from,
// none for a label.
type cell struct {
	text string
	vals []float64
}

func label(s string) cell { return cell{text: s} }

// num is the cell fmt.Sprintf(format, vals...) prints, the vals made float64
// (%.0f of a count prints what %d does).
func num[T int | int64 | float64](format string, vals ...T) cell {
	c := cell{vals: make([]float64, len(vals))}
	args := make([]any, len(vals))
	for i, v := range vals {
		c.vals[i] = float64(v)
		args[i] = c.vals[i]
	}
	c.text = fmt.Sprintf(format, args...)
	return c
}

func mb(v float64) cell { return num("%.0f", v) }

func us(d time.Duration) cell { return num("%.0f", usF(d)) }

func ms(d time.Duration) cell { return num("%.2f", float64(d)/float64(time.Millisecond)) }

// duration prints d as time.Duration does and keeps its seconds.
func duration(d time.Duration) cell { return cell{text: d.String(), vals: []float64{d.Seconds()}} }

// table renders aligned columns.
type table struct {
	header []string
	rows   [][]cell
}

func (t *table) add(cells ...cell) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if n := utf8.RuneCountInString(c.text); i < len(widths) && n > widths[i] {
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
		texts := make([]string, len(r))
		for i, c := range r {
			texts[i] = c.text
		}
		line(texts)
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
