package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesRunner: BENCHMARK.json and the runner's schema
// name the same workloads and metrics, every name and unit is well formed,
// every end-to-end metric has a direction and a bound, and every per-layer
// metric names its layer and what it should move.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("top-level keys %v, want %v", keys, want)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var file struct {
		Command    []string            `json:"command"`
		Paths      []string            `json:"paths"`
		RunSeconds int                 `json:"run_seconds"`
		Workloads  []map[string]string `json:"workloads"`
		EndToEnd   []map[string]any    `json:"end_to_end"`
		PerLayer   []map[string]any    `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", file.Paths)
	}
	if file.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, runner's nominal length is %d", file.RunSeconds, nominalSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not well formed", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, runner has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := file.Workloads[i]
		if len(got) != 2 || got["name"] != w.name || got["why"] != w.why {
			t.Errorf("workload %d: %v, runner has %q: %q", i, got, w.name, w.why)
		}
		checkName(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.name, len(w.why))
		}
	}

	compare := func(kind string, got []map[string]any, specs []spec, withBound bool) {
		t.Helper()
		if len(got) != len(specs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, runner emits %d", kind, len(got), len(specs))
		}
		for i, s := range specs {
			want := map[string]any{"name": s.name, "unit": s.unit, "better": s.better}
			if withBound {
				want["bound"] = s.bound
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, runner has %v", kind, i, got[i], want)
			}
			checkName(s.name)
			if !unitRE.MatchString(s.unit) {
				t.Errorf("%s: unit %q is not well formed", s.name, s.unit)
			}
			if s.better != "lower" && s.better != "higher" {
				t.Errorf("%s: better is %q", s.name, s.better)
			}
			if withBound && (s.bound <= 0 || s.bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", s.name, s.bound)
			}
			if !withBound && (s.layer == "" || s.moves == "") {
				t.Errorf("%s: per-layer metric without layer or the metric it should move", s.name)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)

	hasSetup := false
	for _, s := range endToEnd {
		hasSetup = hasSetup || (s.name == "setup_s" && s.unit == "s" && s.better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (unit s, lower is better)")
	}
}

// TestResultLine: the result line carries exactly the four contract keys
// and one {value, unit} entry per metric of the schema.
func TestResultLine(t *testing.T) {
	for _, specs := range [][]spec{endToEnd, perLayer} {
		var r struct {
			Correct   *bool `json:"correct"`
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		line := resultJSON(specs, metrics{specs[0].name: 1.5e-7}, 10, 0)
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("%v in %s", err, line)
		}
		if r.Correct == nil || !*r.Correct || r.Attempted == nil || *r.Attempted != 10 || r.Failed == nil {
			t.Errorf("bad header in %s", line)
		}
		if len(r.Metrics) != len(specs) {
			t.Errorf("%d metrics on the line, schema has %d", len(r.Metrics), len(specs))
		}
		for _, s := range specs {
			if e, ok := r.Metrics[s.name]; !ok || e.Value == nil || e.Unit != s.unit {
				t.Errorf("metric %s missing or malformed on the result line", s.name)
			}
		}
	}
	if bad := unknownNames(endToEnd, metrics{"sim_kiops": 1, "sim_kiop": 2}); !reflect.DeepEqual(bad, []string{"sim_kiop"}) {
		t.Errorf("unknownNames = %v", bad)
	}
}
