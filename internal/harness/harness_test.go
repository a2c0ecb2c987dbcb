package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "overhead", "fig4", "fig5", "fig6", "fig7", "fig8", "lanes", "wa", "tenants",
		"fleet", "lifetime", "wa-e2e", "ablate-pagecache", "ablate-vector", "ablate-buffering", "ablate-gc-rl",
		"ablate-inflight", "ablate-suspend"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, this list %d", len(All()), len(want))
	}
	// All() must be sorted and stable.
	ids := All()
	for i := 1; i < len(ids); i++ {
		if ids[i-1].ID >= ids[i].ID {
			t.Fatal("All() not sorted")
		}
	}
}

func TestWAQuick(t *testing.T) {
	e, ok := ByID("wa")
	if !ok {
		t.Fatal("wa experiment not registered")
	}
	var buf bytes.Buffer
	if err := e.Run(Options{Quick: true}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
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
	e, ok := ByID("ablate-inflight")
	if !ok {
		t.Fatal("ablate-inflight experiment not registered")
	}
	var buf bytes.Buffer
	if err := e.Run(Options{Quick: true}, &buf); err != nil {
		t.Fatal(err)
	}
	var p99 []float64
	for _, line := range strings.Split(buf.String(), "\n") {
		var depth int
		var wMBps, rP99, rMax float64
		if n, _ := fmt.Sscan(line, &depth, &wMBps, &rP99, &rMax); n == 4 {
			p99 = append(p99, rP99)
		}
	}
	if len(p99) != 4 || p99[3] < 3*p99[0] {
		t.Fatalf("read p99 by inflight bound = %v, want four rows rising at least 3x:\n%s", p99, buf.String())
	}
	// Too small a device is an error from Run, not a panic.
	if err := e.Run(Options{Quick: true, BlocksPerPlane: 8}, &buf); err == nil || !strings.Contains(err.Error(), "over-provisioning") {
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
	tb.write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "a") || !strings.Contains(lines[0], "longer") {
		t.Fatalf("header malformed: %q", lines[0])
	}
}

// TestOverheadExperiment runs the fastest real experiment end to end and
// checks the paper-matching deltas appear.
func TestOverheadExperiment(t *testing.T) {
	e, ok := ByID("overhead")
	if !ok {
		t.Fatal("overhead missing")
	}
	var buf bytes.Buffer
	if err := e.Run(Options{Quick: true, Duration: 5 * time.Millisecond}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"+18%", "+45%", "null block device"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestAblatePageCache exercises a small device-level experiment end to end.
func TestAblatePageCache(t *testing.T) {
	e, _ := ByID("ablate-pagecache")
	var buf bytes.Buffer
	if err := e.Run(Options{Quick: true, Duration: 20 * time.Millisecond}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "true") || !strings.Contains(buf.String(), "false") {
		t.Fatalf("missing rows:\n%s", buf.String())
	}
}

// TestAblateVector checks the vectored-vs-serial experiment shows the
// expected ordering.
func TestAblateVector(t *testing.T) {
	e, _ := ByID("ablate-vector")
	var buf bytes.Buffer
	if err := e.Run(Options{Quick: true, Duration: 10 * time.Millisecond}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "vectored") || !strings.Contains(out, "serial") {
		t.Fatalf("missing rows:\n%s", out)
	}
}

// TestFleetQuick runs the fleet experiment end to end twice: the striped
// volume must scale at least 3x from 1 to 4 devices, the failover drill
// must lose no acknowledged data degraded or after the rebuild, and the
// two runs must produce byte-identical output (the determinism contract
// the whole simulator rests on). fleet is the only experiment that mounts
// several devices, so this is where volume-manager regressions (scaling,
// failover, rebuild) that unit tests sample more narrowly are caught.
func TestFleetQuick(t *testing.T) {
	e, ok := ByID("fleet")
	if !ok {
		t.Fatal("fleet experiment not registered")
	}
	var buf bytes.Buffer
	if err := e.Run(Options{Quick: true}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
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
	var buf2 bytes.Buffer
	if err := e.Run(Options{Quick: true}, &buf2); err != nil {
		t.Fatal(err)
	}
	if out != buf2.String() {
		t.Fatal("fleet output differs between two identical runs: determinism broken")
	}
}

// runQuick runs experiment id with o and returns its output.
func runQuick(t *testing.T, id string, o Options) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	var buf bytes.Buffer
	if err := e.Run(o, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// A PU-partitioned tenant's read tail tracks the solo run next to a
// write-heavy neighbour; one shared pblk inflates it at least tenfold.
func TestTenantsQuick(t *testing.T) {
	out := runQuick(t, "tenants", Options{Quick: true})
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
	out := runQuick(t, "fig8", Defaults(Options{Quick: true, Duration: 20 * time.Millisecond}))
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

// The only run these get under go test (wa, tenants, fleet, fig8 and
// ablate-pagecache have tests of their own above). mustRun fails a job with
// I/O errors, so ablate-suspend also asserts here that every read aimed at
// a raw target found programmed media. lifetime is the only experiment that
// ages the media (P/E wear, retention decay, read retry, scrubbing) and the
// only one that crash-recovers mid-run; it ignores Duration, so this is its
// whole quick run. lanes and wa-e2e check the claims they print.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven quick experiments")
	}
	claims := map[string]func(t *testing.T, out string){
		"lanes":  checkLanes,
		"wa-e2e": checkWAE2E,
	}
	for _, id := range []string{"fig4", "fig5", "fig7", "lanes", "lifetime", "wa-e2e", "ablate-suspend"} {
		t.Run(id, func(t *testing.T) {
			out := runQuick(t, id, Defaults(Options{Quick: true, Duration: 20 * time.Millisecond}))
			if out == "" {
				t.Fatal("empty output")
			}
			if check := claims[id]; check != nil {
				check(t, out)
			}
		})
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
