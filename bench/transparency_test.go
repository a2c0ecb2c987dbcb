package main

import (
	"reflect"
	"testing"
)

// fioShapes are the request shapes of the three fio workloads' jobs.
var fioShapes = map[string]shape{
	"randread-qd32":      {bs: 4096, readPct: 100, qd: 32},
	"steady-mixed-qd32":  {bs: 4096, readPct: 95, qd: 32},
	"volume-raid10-128k": {bs: 128 << 10, readPct: 50, qd: 16},
}

// TestTracedevTransparent runs every workload at 1/20 scale with and
// without the tracedev wrapper: the simulation must not be able to tell —
// same operations, same virtual time, same latency distribution, same
// layer counters before and after the measured phase — and the traced
// pass must emit only metrics the schema declares.
func TestTracedevTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := passOpts{seed: 7, scale: 1.0 / 20, setupScale: 1.0 / 20}
			bare, err := runPass(w, o)
			if err != nil {
				t.Fatal(err)
			}
			o.traced = true
			traced, err := runPass(w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*passResult{bare, traced} {
				if r.failed != 0 || r.firstErr != nil {
					t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.firstErr)
				}
			}
			b, tr := &bare.total, &traced.total
			if b.ops != tr.ops || b.elapsed != tr.elapsed || b.readBytes != tr.readBytes || b.writeBytes != tr.writeBytes {
				t.Errorf("traffic differs: bare %d ops in %v, traced %d ops in %v", b.ops, b.elapsed, tr.ops, tr.elapsed)
			}
			for _, q := range []float64{50, 99, 99.9} {
				if x, y := quantileUS(&b.readLat, q), quantileUS(&tr.readLat, q); x != y {
					t.Errorf("read latency q%v: bare %v, traced %v", q, x, y)
				}
			}
			if !reflect.DeepEqual(bare.before, traced.before) || !reflect.DeepEqual(bare.after, traced.after) {
				t.Errorf("layer counters differ:\nbare   %+v\ntraced %+v", bare.after, traced.after)
			}
			if bare.freeGroupsMin != traced.freeGroupsMin {
				t.Errorf("free groups: bare %d, traced %d", bare.freeGroupsMin, traced.freeGroupsMin)
			}

			st := traced.st.tracer
			if st.Requests == 0 || len(st.Spans) == 0 {
				t.Fatalf("tracer saw %d requests, kept %d spans", st.Requests, len(st.Spans))
			}
			if traced.st.db == nil && st.Requests != tr.ops {
				t.Errorf("tracer counted %d requests for %d fio operations", st.Requests, tr.ops)
			}
			// The ladder's shape is derived from these counters: for a fio
			// workload it must come out as the job's own.
			sh := shapeSeen(st, tr.elapsed, traced.st.top.SectorSize())
			if want, ok := fioShapes[w.name]; ok && (sh.bs != want.bs || sh.qd != want.qd ||
				sh.readPct < want.readPct-1 || sh.readPct > want.readPct+1) { // the mix is drawn per request
				t.Errorf("ladder shape %+v, the fio job is %+v", sh, want)
			}
			if sh.bs%traced.st.top.SectorSize() != 0 || sh.readPct < 0 || sh.readPct > 100 || sh.qd < 1 {
				t.Errorf("ladder shape %+v is not replayable", sh)
			}
			m := metrics{}
			layerCounts(m, traced.st, traced.before, traced.after, phaseTotals{ops: tr.ops, userSectors: 1, freeGroupsMin: traced.freeGroupsMin})
			if bad := unknownNames(perLayer, m); len(bad) > 0 {
				t.Errorf("metrics missing from the schema: %v", bad)
			}
		})
	}
}
