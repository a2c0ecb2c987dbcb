package harness

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// golden holds every experiment's -quick output, one section each, as
// regenerate prints it. A change that moves an output regenerates the file,
// and the moved lines show up in its diff.
const (
	golden     = "testdata/quick.golden"
	regenerate = "go run ./cmd/lnvm-bench -quick all | grep -v 'wall time' > internal/harness/testdata/quick.golden"
)

// goldenSection is one experiment's part of the golden: "\n#### id — title\n",
// its output and "\n", the way lnvm-bench frames it.
type goldenSection struct {
	id   string
	text string
	line int // line of the golden the section starts on
}

// goldenSections splits the golden at its "####" headers, in file order.
func goldenSections(t *testing.T) []goldenSection {
	t.Helper()
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	const mark = "\n#### "
	text := string(data)
	if !strings.HasPrefix(text, mark) {
		t.Fatalf("%s does not start with a %q header", golden, strings.TrimSpace(mark))
	}
	var out []goldenSection
	for line := 1; text != ""; {
		end := strings.Index(text[1:], mark) + 1
		if end == 0 {
			end = len(text)
		}
		id, _, _ := strings.Cut(text[len(mark):end], " ")
		out = append(out, goldenSection{id: id, text: text[:end], line: line})
		line += strings.Count(text[:end], "\n")
		text = text[end:]
	}
	return out
}

// moved says where got first leaves section s, and how to regenerate.
func moved(s goldenSection, got string) string {
	want, have := strings.Split(s.text, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(want) && i < len(have) && want[i] == have[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return strconv.Quote(lines[i])
		}
		return "(end of section)"
	}
	return fmt.Sprintf("%s:%d: %s output moved\n\twant %s\n\tgot  %s\nif the move is meant, regenerate the golden and review its diff:\n\t%s",
		golden, s.line+i, s.id, at(want), at(have), regenerate)
}

// quickRun is one experiment's run with Options{Quick: true}, which is what
// lnvm-bench -quick passes.
type quickRun struct {
	rep *Report
	err error
}

// quickRuns memoizes quickReport, so every test that reads an experiment's
// -quick report shares one run of it per test binary. This package's tests
// do not run in parallel.
var quickRuns = map[string]quickRun{}

// quickReport returns experiment id's -quick report, running it on first use.
func quickReport(t *testing.T, id string) *Report {
	t.Helper()
	r, ok := quickRuns[id]
	if !ok {
		e, found := ByID(id)
		if !found {
			t.Fatalf("experiment %q not registered", id)
		}
		r.rep, r.err = e.Run(Options{Quick: true})
		quickRuns[id] = r
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.rep
}

// text is rep as lnvm-bench prints it.
func text(rep *Report) string {
	var b strings.Builder
	rep.WriteTo(&b)
	return b.String()
}

// cellAt returns the values of the cell in column col of the row whose
// leading cells read row, in the first table under a section whose title
// starts with title. The error names the section, row or column missing.
func cellAt(rep *Report, title, col string, row ...string) ([]float64, error) {
	for _, s := range rep.sections {
		for _, it := range s.items {
			t, ok := it.(*table)
			if !ok || !strings.HasPrefix(s.title, title) {
				continue
			}
			c := slices.Index(t.header, col)
			if c < 0 {
				return nil, fmt.Errorf("section %q has no column %q", s.title, col)
			}
			for _, cells := range t.rows {
				if slices.EqualFunc(cells[:len(row)], row, func(c cell, l string) bool { return c.text == l }) && len(cells[c].vals) > 0 {
					return cells[c].vals, nil
				}
			}
			return nil, fmt.Errorf("section %q has no row %q with a number in column %q", s.title, row, col)
		}
	}
	return nil, fmt.Errorf("no table under a section titled %q...", title)
}

// value is the first value cellAt finds; a missing section, row or column
// fails t.
func value(t *testing.T, rep *Report, title, col string, row ...string) float64 {
	t.Helper()
	v, err := cellAt(rep, title, col, row...)
	if err != nil {
		t.Fatal(err)
	}
	return v[0]
}

// The golden's sections are the registry: one per experiment, in All()'s
// sorted order.
func TestRegistryComplete(t *testing.T) {
	sections := goldenSections(t)
	has := map[string]bool{}
	for _, s := range sections {
		has[s.id] = true
		if _, ok := ByID(s.id); !ok {
			t.Errorf("experiment %q not registered", s.id)
		}
	}
	all := All()
	for i, e := range all {
		if !has[e.ID] {
			t.Errorf("experiment %q has no section in %s", e.ID, golden)
		}
		if i > 0 && all[i-1].ID >= e.ID {
			t.Errorf("All() not sorted: %q before %q", all[i-1].ID, e.ID)
		}
	}
	if len(all) != len(sections) {
		t.Errorf("registry has %d experiments, %s %d sections", len(all), golden, len(sections))
	}
}

// Every registered experiment, run as lnvm-bench -quick runs it, prints
// exactly its section of the golden; lanes and wa-e2e also check the claims
// they print. mustRun fails a job with I/O errors, so ablate-suspend also
// asserts here that every read aimed at a raw target found programmed media.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	want := map[string]goldenSection{}
	for _, s := range goldenSections(t) {
		want[s.id] = s
		if _, ok := ByID(s.id); !ok {
			t.Errorf("%s:%d: section %q names no registered experiment", golden, s.line, s.id)
		}
	}
	claims := map[string]func(t *testing.T, rep *Report){
		"lanes":  checkLanes,
		"wa-e2e": checkWAE2E,
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			rep := quickReport(t, e.ID)
			s, ok := want[e.ID]
			if !ok {
				t.Fatalf("%s has no section for %s; regenerate it:\n\t%s", golden, e.ID, regenerate)
			}
			if got := fmt.Sprintf("\n#### %s — %s\n%s\n", e.ID, e.Title, text(rep)); got != s.text {
				t.Error(moved(s, got))
			}
			if check := claims[e.ID]; check != nil {
				check(t, rep)
			}
		})
	}
}

// Stream separation: dual-stream GC stops re-moving cold sectors, so its WA
// is below the single-stream baseline's.
func TestWAQuick(t *testing.T) {
	rep := quickReport(t, "wa")
	single := value(t, rep, "Stream separation", "WA", "single-stream (baseline)")
	dual := value(t, rep, "Stream separation", "WA", "dual-stream depth=2 (default)")
	if dual >= single {
		t.Errorf("dual-stream WA %.2f, want below single-stream %.2f", dual, single)
	}
	// A deeper GC pipeline leaves WA flat and stretches the write tail.
	const depth, seq, deep = "GC pipeline depth", "depth=1 (sequential reclaim)", "depth=4"
	wa1, wa4 := value(t, rep, depth, "WA", seq), value(t, rep, depth, "WA", deep)
	max1, max4 := value(t, rep, depth, "max write ms", seq), value(t, rep, depth, "max write ms", deep)
	if max(wa1, wa4) > 1.05*min(wa1, wa4) || max4 <= max1 {
		t.Errorf("depth 1 vs 4: WA %.2f vs %.2f (want within 5%%), max write %.2f vs %.2f ms (want depth 4 above)",
			wa1, wa4, max1, max4)
	}
}

// ablate-inflight mounts a default-OP pblk on all 128 PUs; it used to build a
// device below pblk's spare-pool floor and panic. The bound must show in the
// read tail: eight writes queued per PU wait several times longer than one.
func TestAblateInflightQuick(t *testing.T) {
	rep := quickReport(t, "ablate-inflight")
	var p99 []float64
	for _, depth := range []string{"1", "2", "4", "8"} {
		p99 = append(p99, value(t, rep, "per-PU write inflight bound", "R p99 us", depth))
	}
	if p99[3] < 3*p99[0] {
		t.Fatalf("read p99 at inflight bounds 1, 2, 4, 8 = %v us, want the last at least 3x the first", p99)
	}
	// Too small a device is an error from Run, not a panic.
	e, _ := ByID("ablate-inflight")
	if _, err := e.Run(Options{Quick: true, BlocksPerPlane: 8}); err == nil || !strings.Contains(err.Error(), "over-provisioning") {
		t.Fatalf("8 blocks/plane: err = %v, want pblk's over-provisioning error", err)
	}
}

// A check failure inside a simulation process is Run's error; a panic with
// anything else is a bug and must reach the caller as it was.
func TestOnlyCheckFailuresBecomeErrors(t *testing.T) {
	inProc := func(v any) func(Options) *Report {
		return func(Options) *Report {
			env := sim.NewEnv(1)
			env.Go("p", func(*sim.Proc) { panic(v) })
			env.Run()
			return nil
		}
	}
	boom := errors.New("boom")
	if _, err := guarded(inProc(failure{boom}))(Options{}); !errors.Is(err, boom) {
		t.Fatalf("check failure in a process: Run returned %v", err)
	}
	defer func() {
		if pp, ok := recover().(sim.ProcPanic); !ok || pp.Value != "bug" {
			t.Fatal("a panic that is no check failure was swallowed or rewrapped")
		}
	}()
	guarded(inProc("bug"))(Options{})
}

func TestDefaults(t *testing.T) {
	o := Defaults(Options{})
	if o.BlocksPerPlane == 0 || o.Duration == 0 || o.Seed == 0 {
		t.Fatalf("defaults incomplete: %+v", o)
	}
	o2 := Defaults(Options{BlocksPerPlane: 5, Duration: time.Second, Seed: 9})
	if o2.BlocksPerPlane != 5 || o2.Duration != time.Second || o2.Seed != 9 {
		t.Fatal("defaults overwrote explicit options")
	}
}

// A report renders to fixed bytes — an untitled leading section, then a
// titled one with a table and notes — and a lookup returns the values a cell
// was formatted from, or names what it could not find.
func TestTablePrinter(t *testing.T) {
	rep := &Report{}
	rep.section("").note("", "lead")
	s := rep.section("T")
	tb := s.table("a", "longer")
	tb.add(label("x"), num("%.0f (%.0f)", 37.2, 85.0))
	tb.add(label("100µs"), duration(1500*time.Microsecond))
	s.note("", "done")
	out := text(rep)
	if want := "\nlead\n\n== T ==\na      longer\n-----  -------\nx      37 (85)\n100µs  1.5ms\n\ndone\n"; out != want {
		t.Fatalf("rendered\n%s\nwant\n%s", out, want)
	}
	// Cells pad by columns, not bytes: the two-byte µ takes one column.
	lines := strings.Split(out, "\n")[4:8]
	col := strings.Index(lines[0], "longer")
	for _, l := range lines[1:] {
		if r := []rune(l); len(r) <= col || r[col-1] != ' ' || r[col] == ' ' {
			t.Errorf("second column of %q does not start at column %d:\n%s", l, col, out)
		}
	}
	for row, want := range map[string][]float64{"x": {37.2, 85}, "100µs": {0.0015}} {
		if v, err := cellAt(rep, "T", "longer", row); err != nil || !slices.Equal(v, want) {
			t.Errorf("cell (T, %s, longer) = %v, %v; want %v", row, v, err, want)
		}
	}
	if _, err := cellAt(rep, "T", "longer", "y"); err == nil || !strings.Contains(err.Error(), `"y"`) {
		t.Errorf("cell (T, y, longer): err = %v, want it to name the missing row", err)
	}
}

// TestOverheadExperiment checks the paper-matching deltas appear.
func TestOverheadExperiment(t *testing.T) {
	out := text(quickReport(t, "overhead"))
	for _, want := range []string{"+18%", "+45%", "null block device"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// The controller's page cache makes sequential 4K reads 2-3x faster and
// leaves random reads, which miss it, alone.
func TestAblatePageCache(t *testing.T) {
	rep := quickReport(t, "ablate-pagecache")
	const title = "controller page cache"
	seq := value(t, rep, title, "seq 4K MB/s", "true") / value(t, rep, title, "seq 4K MB/s", "false")
	on, off := value(t, rep, title, "rand 4K MB/s", "true"), value(t, rep, title, "rand 4K MB/s", "false")
	if seq < 2 || seq > 3 || max(on, off) > 1.10*min(on, off) {
		t.Errorf("cache on vs off: seq 4K %.2fx (want 2-3x), rand 4K %.0f vs %.0f MB/s (want within 10%%)", seq, on, off)
	}
}

// One multi-plane vector per unit programs at least 3x faster than a
// command per plane-page.
func TestAblateVector(t *testing.T) {
	rep := quickReport(t, "ablate-vector")
	vec := value(t, rep, "vectored vs serial", "MB/s", "vectored (1 cmd/unit)")
	ser := value(t, rep, "vectored vs serial", "MB/s", "serial (1 cmd/plane-page)")
	if vec < 3*ser {
		t.Errorf("vectored %.0f MB/s, serial %.0f MB/s: want at least 3x", vec, ser)
	}
}

// A flush on the host ring buffer pads the open page; the NVMe write cache
// needs no padding and acks the flush in command-handling time, while the
// host buffer acks the write itself fastest.
func TestAblateBuffering(t *testing.T) {
	rep := quickReport(t, "ablate-buffering")
	const title, host, dev = "write buffering placement", "host ring buffer (pblk)", "NVMe write cache"
	hostPad, devPad := value(t, rep, title, "padding KB", host), value(t, rep, title, "padding KB", dev)
	hostAck, devAck := value(t, rep, title, "avg ack us", host), value(t, rep, title, "avg ack us", dev)
	hostFlush, devFlush := value(t, rep, title, "avg flush us", host), value(t, rep, title, "avg flush us", dev)
	if hostPad <= 0 || devPad != 0 {
		t.Errorf("padding: host %.0f KB (want > 0), device %.0f KB (want 0)", hostPad, devPad)
	}
	if hostAck >= devAck || devFlush*100 >= hostFlush {
		t.Errorf("ack host %.0f vs device %.0f us (want host below); flush host %.0f vs device %.0f us (want device under 1/100)",
			hostAck, devAck, hostFlush, devFlush)
	}
}

// Without suspend a read waits out a whole erase; 100 µs slices cut the p99
// at least 5x and cost write throughput.
func TestAblateSuspend(t *testing.T) {
	rep := quickReport(t, "ablate-suspend")
	const title = "program/erase suspend"
	off, on := value(t, rep, title, "R p99 us", "off"), value(t, rep, title, "R p99 us", "100µs")
	if off < 3000 || off < 5*on {
		t.Errorf("read p99 off %.0f us, on %.0f us: want off at least one erase (3000 us) and 5x on", off, on)
	}
	if wOff, wOn := value(t, rep, title, "W MB/s", "off"), value(t, rep, title, "W MB/s", "100µs"); wOn >= wOff {
		t.Errorf("write %.0f MB/s with suspend, %.0f without: want slower with suspend", wOn, wOff)
	}
	if sOff, sOn := value(t, rep, title, "suspensions", "off"), value(t, rep, title, "suspensions", "100µs"); sOff != 0 || sOn == 0 {
		t.Errorf("suspensions off %.0f, on %.0f: want 0 and more than 0", sOff, sOn)
	}
}

// The PID rate limiter paces user writes to GC progress: slower writes and at
// least twice the recycled groups of the unthrottled run.
func TestAblateGCRL(t *testing.T) {
	rep := quickReport(t, "ablate-gc-rl")
	const title, pid, off = "GC rate limiter", "PID (paper)", "disabled"
	rPID, rOff := value(t, rep, title, "recycled", pid), value(t, rep, title, "recycled", off)
	wPID, wOff := value(t, rep, title, "write MB/s", pid), value(t, rep, title, "write MB/s", off)
	if rPID < 2*rOff || wPID >= wOff {
		t.Errorf("PID vs disabled: recycled %.0f vs %.0f (want at least 2x), write %.0f vs %.0f MB/s (want PID slower)",
			rPID, rOff, wPID, wOff)
	}
}

// TestFleetQuick: the striped volume must scale at least 3x from 1 to 4
// devices, the failover drill must lose no acknowledged data degraded or
// after the rebuild, and a second run in the same process must print
// byte-identical output (the determinism contract the whole simulator rests
// on). fleet is the only experiment that mounts several devices, so this is
// where volume-manager regressions (scaling, failover, rebuild) that unit
// tests sample more narrowly are caught.
func TestFleetQuick(t *testing.T) {
	rep := quickReport(t, "fleet")
	out := text(rep)
	for _, want := range []string{
		"RAID-0 scaling", "Failover drill",
		"degraded: 0 mismatched bytes; after rebuild: 0",
		"success=true", "degraded=false",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet output missing %q:\n%s", want, out)
		}
	}
	wx, rx := value(t, rep, "RAID-0 scaling", "write x", "4"), value(t, rep, "RAID-0 scaling", "read x", "4")
	if wx < 3 || rx < 3 {
		t.Errorf("RAID-0 scaling 1->4 devices below 3x: write %.2fx read %.2fx\n%s", wx, rx, out)
	}
	delete(quickRuns, "fleet") // run it again
	if out != text(quickReport(t, "fleet")) {
		t.Fatal("fleet output differs between two identical runs: determinism broken")
	}
}

// A PU-partitioned tenant's read tail tracks the solo run next to a
// write-heavy neighbour; one shared pblk inflates it at least tenfold.
func TestTenantsQuick(t *testing.T) {
	rep := quickReport(t, "tenants")
	p99 := func(config string) float64 { return value(t, rep, "Multi-tenant targets", "read p99", config) }
	solo := p99("solo")
	part, shared := p99("partitioned")/solo, p99("shared")/solo
	if part > 1.10 || shared < 10 {
		t.Fatalf("read p99 vs solo: partitioned %.2fx (want <= 1.10x), shared %.2fx (want >= 10x)", part, shared)
	}
}

// Figure 8: a raw target on PUs of its own keeps the reader's p99 flat at
// every write share; the NVMe SSD's p99 at 20 % writes is several times
// its read-only value.
func TestFig8Quick(t *testing.T) {
	rep := quickReport(t, "fig8")
	var oc []float64
	for _, mix := range []string{"100/0", "80/20", "66/33", "50/50"} {
		oc = append(oc, value(t, rep, "Figure 8", "OCSSD p99", mix))
	}
	if lo, hi := slices.Min(oc), slices.Max(oc); hi > 1.10*lo {
		t.Errorf("OCSSD read p99 %v us moves more than 10%% across the mixes", oc)
	}
	nv0, nv20 := value(t, rep, "Figure 8", "NVMe p99", "100/0"), value(t, rep, "Figure 8", "NVMe p99", "80/20")
	if nv20 < 5*nv0 {
		t.Errorf("NVMe read p99 %.0f us at 80/20 below 5x its 100/0 value %.0f us", nv20, nv0)
	}
}

// checkLanes: write throughput scales at least 8x from 1 to 16 lanes, and
// round-robin dispatch gives every lane the same number of units.
func checkLanes(t *testing.T, rep *Report) {
	const title = "Write-lane scaling"
	for _, lanes := range []string{"1", "16"} {
		v, err := cellAt(rep, title, "units/lane min..max", lanes)
		if err != nil {
			t.Fatal(err)
		}
		if v[0] != v[1] {
			t.Errorf("%s lanes: units/lane %.0f..%.0f, want min == max", lanes, v[0], v[1])
		}
	}
	if x := value(t, rep, title, "W MB/s", "16") / value(t, rep, title, "W MB/s", "1"); x < 8 {
		t.Errorf("write throughput scales %.1fx from 1 to 16 lanes, want at least 8x", x)
	}
}

// checkWAE2E: cold-stream hints leave the FTL next to nothing to move (FTL
// WA reads 1.00), so their combined WA beats the stacked baseline's.
func checkWAE2E(t *testing.T, rep *Report) {
	const title = "End-to-end WA"
	ftlWA := value(t, rep, title, "FTL WA", "cold-stream hints")
	base := value(t, rep, title, "combined", "stacked baseline")
	hinted := value(t, rep, title, "combined", "cold-stream hints")
	if ftlWA >= 1.005 || hinted >= base {
		t.Errorf("cold-stream FTL WA %.3f (want 1.00), combined WA %.2f vs stacked %.2f (want lower)", ftlWA, hinted, base)
	}
}
