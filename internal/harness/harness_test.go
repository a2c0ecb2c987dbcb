package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	out string
	err error
}

// quickRuns memoizes quickOutput, so every test that reads an experiment's
// -quick output shares one run of it per test binary. This package's tests
// do not run in parallel.
var quickRuns = map[string]quickRun{}

// quickOutput returns experiment id's -quick output, running it on first use.
func quickOutput(t *testing.T, id string) string {
	t.Helper()
	r, ok := quickRuns[id]
	if !ok {
		e, found := ByID(id)
		if !found {
			t.Fatalf("experiment %q not registered", id)
		}
		var buf bytes.Buffer
		r = quickRun{err: e.Run(Options{Quick: true}, &buf)}
		r.out = buf.String()
		quickRuns[id] = r
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.out
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
	claims := map[string]func(t *testing.T, out string){
		"lanes":  checkLanes,
		"wa-e2e": checkWAE2E,
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			out := quickOutput(t, e.ID)
			s, ok := want[e.ID]
			if !ok {
				t.Fatalf("%s has no section for %s; regenerate it:\n\t%s", golden, e.ID, regenerate)
			}
			if got := fmt.Sprintf("\n#### %s — %s\n%s\n", e.ID, e.Title, out); got != s.text {
				t.Error(moved(s, got))
			}
			if check := claims[e.ID]; check != nil {
				check(t, out)
			}
		})
	}
}

func TestWAQuick(t *testing.T) {
	out := quickOutput(t, "wa")
	for _, want := range []string{"single-stream (baseline)", "dual-stream", "WA", "depth=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("wa output missing %q:\n%s", want, out)
		}
	}
}

// ablate-inflight mounts a default-OP pblk on all 128 PUs; it used to build a
// device below pblk's spare-pool floor and panic. The bound must show in the
// read tail: eight writes queued per PU wait several times longer than one.
func TestAblateInflightQuick(t *testing.T) {
	out := quickOutput(t, "ablate-inflight")
	var p99 []float64
	for _, line := range strings.Split(out, "\n") {
		var depth int
		var wMBps, rP99, rMax float64
		if n, _ := fmt.Sscan(line, &depth, &wMBps, &rP99, &rMax); n == 4 {
			p99 = append(p99, rP99)
		}
	}
	if len(p99) != 4 || p99[3] < 3*p99[0] {
		t.Fatalf("read p99 by inflight bound = %v, want four rows rising at least 3x:\n%s", p99, out)
	}
	// Too small a device is an error from Run, not a panic.
	e, _ := ByID("ablate-inflight")
	if err := e.Run(Options{Quick: true, BlocksPerPlane: 8}, io.Discard); err == nil || !strings.Contains(err.Error(), "over-provisioning") {
		t.Fatalf("8 blocks/plane: err = %v, want pblk's over-provisioning error", err)
	}
}

// A check failure inside a simulation process is Run's error; a panic with
// anything else is a bug and must reach the caller as it was.
func TestOnlyCheckFailuresBecomeErrors(t *testing.T) {
	inProc := func(v any) func(Options, io.Writer) error {
		return func(Options, io.Writer) error {
			env := sim.NewEnv(1)
			env.Go("p", func(*sim.Proc) { panic(v) })
			env.Run()
			return nil
		}
	}
	boom := errors.New("boom")
	if err := guarded(inProc(failure{boom}))(Options{}, nil); !errors.Is(err, boom) {
		t.Fatalf("check failure in a process: Run returned %v", err)
	}
	defer func() {
		if pp, ok := recover().(sim.ProcPanic); !ok || pp.Value != "bug" {
			t.Fatal("a panic that is no check failure was swallowed or rewrapped")
		}
	}()
	guarded(inProc("bug"))(Options{}, nil)
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

func TestTablePrinter(t *testing.T) {
	var buf bytes.Buffer
	tb := &table{header: []string{"a", "longer"}}
	tb.add("x", "1")
	tb.add("yyyy", "22")
	tb.add("100µs", "3")
	tb.write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a") || !strings.Contains(lines[0], "longer") {
		t.Fatalf("header malformed: %q", lines[0])
	}
	// Cells pad by columns, not bytes: the two-byte µ takes one column.
	col := strings.Index(lines[0], "longer")
	for _, l := range lines[1:] {
		if r := []rune(l); len(r) <= col || r[col-1] != ' ' || r[col] == ' ' {
			t.Errorf("second column of %q does not start at column %d:\n%s", l, col, out)
		}
	}
}

// TestOverheadExperiment checks the paper-matching deltas appear.
func TestOverheadExperiment(t *testing.T) {
	out := quickOutput(t, "overhead")
	for _, want := range []string{"+18%", "+45%", "null block device"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestAblatePageCache checks both page-cache settings report.
func TestAblatePageCache(t *testing.T) {
	out := quickOutput(t, "ablate-pagecache")
	if !strings.Contains(out, "true") || !strings.Contains(out, "false") {
		t.Fatalf("missing rows:\n%s", out)
	}
}

// TestAblateVector checks both the vectored and the serial mode report.
func TestAblateVector(t *testing.T) {
	out := quickOutput(t, "ablate-vector")
	if !strings.Contains(out, "vectored") || !strings.Contains(out, "serial") {
		t.Fatalf("missing rows:\n%s", out)
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
	out := quickOutput(t, "fleet")
	for _, want := range []string{
		"RAID-0 scaling", "Failover drill",
		"degraded: 0 mismatched bytes; after rebuild: 0",
		"success=true", "degraded=false",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet output missing %q:\n%s", want, out)
		}
	}
	var wx, rx float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "1->4 devices:") {
			if _, err := fmt.Sscanf(line, "1->4 devices: write %fx, read %fx", &wx, &rx); err != nil {
				t.Fatalf("cannot parse scaling line %q: %v", line, err)
			}
		}
	}
	if wx < 3 || rx < 3 {
		t.Errorf("RAID-0 scaling 1->4 devices below 3x: write %.2fx read %.2fx\n%s", wx, rx, out)
	}
	e, _ := ByID("fleet")
	var again bytes.Buffer
	if err := e.Run(Options{Quick: true}, &again); err != nil {
		t.Fatal(err)
	}
	if out != again.String() {
		t.Fatal("fleet output differs between two identical runs: determinism broken")
	}
}

// A PU-partitioned tenant's read tail tracks the solo run next to a
// write-heavy neighbour; one shared pblk inflates it at least tenfold.
func TestTenantsQuick(t *testing.T) {
	out := quickOutput(t, "tenants")
	part, shared := -1.0, -1.0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "read p99:") {
			var solo, partP99, sharedP99 string
			if _, err := fmt.Sscanf(line, "read p99: solo %s partitioned %s (%fx solo), shared %s (%fx solo)",
				&solo, &partP99, &part, &sharedP99, &shared); err != nil {
				t.Fatalf("cannot parse %q: %v", line, err)
			}
		}
	}
	if part < 0 || part > 1.10 || shared < 10 {
		t.Fatalf("read p99 vs solo: partitioned %.2fx (want <= 1.10x), shared %.2fx (want >= 10x):\n%s", part, shared, out)
	}
}

// Figure 8: a raw target on PUs of its own keeps the reader's p99 flat at
// every write share; the NVMe SSD's p99 at 20 % writes is several times
// its read-only value.
func TestFig8Quick(t *testing.T) {
	out := quickOutput(t, "fig8")
	var mixes []string
	var ocP99, nvP99 []float64
	for _, line := range strings.Split(out, "\n") {
		var mix string
		var ocP95, oc99, ocMax, nvP95, nv99, nvMax float64
		if n, _ := fmt.Sscan(line, &mix, &ocP95, &oc99, &ocMax, &nvP95, &nv99, &nvMax); n == 7 {
			mixes = append(mixes, mix)
			ocP99 = append(ocP99, oc99)
			nvP99 = append(nvP99, nv99)
		}
	}
	if len(mixes) != 4 || mixes[0] != "100/0" || mixes[1] != "80/20" {
		t.Fatalf("want the four mixes from 100/0, got %v:\n%s", mixes, out)
	}
	if lo, hi := slices.Min(ocP99), slices.Max(ocP99); hi > 1.10*lo {
		t.Errorf("OCSSD read p99 %v us moves more than 10%% across the mixes:\n%s", ocP99, out)
	}
	if nvP99[1] < 5*nvP99[0] {
		t.Errorf("NVMe read p99 %v us at 80/20 below 5x its 100/0 value %v us:\n%s", nvP99[1], nvP99[0], out)
	}
}

// checkLanes: write throughput scales at least 8x from 1 to 16 lanes, and
// round-robin dispatch gives every lane the same number of units.
func checkLanes(t *testing.T, out string) {
	rows := 0
	scaling := 0.0
	for _, line := range strings.Split(out, "\n") {
		var active, units, stalls, peak, padded int
		var wMBps float64
		var spread string
		if n, _ := fmt.Sscan(line, &active, &wMBps, &units, &stalls, &peak, &padded, &spread); n == 7 {
			rows++
			var lo, hi int
			if _, err := fmt.Sscanf(spread, "%d..%d", &lo, &hi); err != nil || lo != hi {
				t.Errorf("%d lanes: units/lane %s, want min == max", active, spread)
			}
		}
		if strings.HasPrefix(line, "scaling:") {
			var from, to int
			if _, err := fmt.Sscanf(line, "scaling: %d lanes -> %d lanes = %fx", &from, &to, &scaling); err != nil {
				t.Fatalf("cannot parse %q: %v", line, err)
			}
		}
	}
	if rows != 2 || scaling < 8 {
		t.Errorf("%d rows, scaling %.1fx: want 2 rows and at least 8x from 1 to 16 lanes:\n%s", rows, scaling, out)
	}
}

// checkWAE2E: the flash-native stream leaves the FTL nothing to move (FTL
// WA 1.00), so its combined WA beats the stacked baseline's.
func checkWAE2E(t *testing.T, out string) {
	ftlWA := ""
	base, native := 0.0, 0.0
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "flash-native stream "); ok {
			if f := strings.Fields(rest); len(f) > 1 {
				ftlWA = f[1]
			}
		}
		if strings.HasPrefix(line, "flash-native vs stacked:") {
			if _, err := fmt.Sscanf(line, "flash-native vs stacked: combined WA %f -> %f,", &base, &native); err != nil {
				t.Fatalf("cannot parse %q: %v", line, err)
			}
		}
	}
	if ftlWA != "1.00" || native <= 0 || native >= base {
		t.Errorf("flash-native FTL WA %q (want 1.00), combined WA %.2f vs stacked %.2f (want lower):\n%s",
			ftlWA, native, base, out)
	}
}
