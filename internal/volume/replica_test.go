package volume

import (
	"fmt"
	"testing"

	"repro/internal/fio"
	"repro/internal/sim"
)

// prepared returns a volume of the given layout over a fresh test fleet with
// its first size bytes written and flushed.
func prepared(t *testing.T, p *sim.Proc, env *sim.Env, devices int, l Layout, size int64) (*Manager, *Volume) {
	t.Helper()
	mgr := newFleet(t, p, env, testConfig(devices, 0, 11))
	v := mustVolume(t, mgr, "r0", l, Options{})
	if err := fio.Prepare(p, v, 0, size); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return mgr, v
}

// failMediaReads sets the uncorrectable-read probability of every die of a
// member: from then on its reads of programmed pages fail with that
// probability.
func failMediaReads(mgr *Manager, id int, prob float64) {
	oc := mgr.members[id].Device()
	for pu := 0; pu < oc.Geometry().TotalPUs(); pu++ {
		oc.Die(pu).SetReadFailProb(prob)
	}
}

// mediaReadFails sums the uncorrectable page reads over a member's dies.
func mediaReadFails(mgr *Manager, id int) int64 {
	oc := mgr.members[id].Device()
	var n int64
	for pu := 0; pu < oc.Geometry().TotalPUs(); pu++ {
		n += oc.Die(pu).Stats.ReadFails
	}
	return n
}

// A 128 KiB read over 64 KiB chunks is one chunk per column. A replica
// cursor shared by the columns advances twice per request, so each column
// sees the same parity every time and half the members serve no reads.
func TestRaid10TwoChunkReadsReachEveryMember(t *testing.T) {
	runSim(t, 11, func(p *sim.Proc, env *sim.Env) {
		const size, ops = 4 << 20, 2000
		mgr, v := prepared(t, p, env, 4, StripeOfMirrors(64<<10, []int{0, 1}, []int{2, 3}), size)
		res, err := fio.Run(p, v, fio.Job{Name: "r", Pattern: fio.RandRead, BS: 128 << 10, QD: 16, Size: size, MaxOps: ops})
		if err != nil || res.Errors != 0 {
			t.Fatalf("read job: err=%v errors=%d", err, res.Errors)
		}
		mean := float64(2*res.Reads) / 4
		for id := 0; id < 4; id++ {
			if r := float64(mgr.members[id].SubReads); r < 0.9*mean || r > 1.1*mean {
				t.Errorf("member %d served %.0f chunk reads, want within 10%% of %.0f", id, r, mean)
			}
		}
	})
}

// A media read failure takes device time: by the time it completes, other
// reads have moved the set's cursor, which may point straight back at the
// failing replica. A retry goes to the next healthy replica instead and
// leaves the cursor alone, so first choices still alternate: at most the
// half of the reads that start on member 0 cost a retry, and the user sees
// no error.
func TestMirrorReadRetryAvoidsFailedReplica(t *testing.T) {
	for _, rate := range []float64{1, 0.9} {
		t.Run(fmt.Sprint("rate=", rate), func(t *testing.T) {
			runSim(t, 11, func(p *sim.Proc, env *sim.Env) {
				const size, ops = 4 << 20, 4000
				mgr, v := prepared(t, p, env, 2, Mirror(0, 1), size)
				failMediaReads(mgr, 0, rate)
				res, err := fio.Run(p, v, fio.Job{Name: "r", Pattern: fio.RandRead, BS: 64 << 10, QD: 16, Size: size, MaxOps: ops})
				if err != nil {
					t.Fatal(err)
				}
				st := v.Stats()
				fails := mediaReadFails(mgr, 0)
				t.Logf("errors=%d retried=%d media read fails=%d", res.Errors, st.RetriedReads, fails)
				if res.Errors != 0 {
					t.Errorf("%d of %d reads failed beside a healthy replica", res.Errors, ops)
				}
				if fails == 0 || st.RetriedReads == 0 || st.RetriedReads > ops/2 {
					t.Errorf("%d retries for %d reads (%d media read fails), want one per read started on member 0 at most",
						st.RetriedReads, ops, fails)
				}
			})
		})
	}
}

// With the next replica dead, a retry skips it: every read that fails on
// member 0's media reaches member 2 on its first retry, and first choices
// alternate between members 0 and 2.
func TestMirrorReadRetrySkipsDeadReplica(t *testing.T) {
	runSim(t, 11, func(p *sim.Proc, env *sim.Env) {
		const size, ops = 4 << 20, 2000
		mgr, v := prepared(t, p, env, 3, Mirror(0, 1, 2), size)
		failMediaReads(mgr, 0, 1)
		mgr.Kill(1)
		res, err := fio.Run(p, v, fio.Job{Name: "r", Pattern: fio.RandRead, BS: 64 << 10, QD: 16, Size: size, MaxOps: ops})
		if err != nil {
			t.Fatal(err)
		}
		st := v.Stats()
		if res.Errors != 0 {
			t.Errorf("%d of %d reads failed beside a healthy replica", res.Errors, ops)
		}
		m0, m2 := mgr.members[0].SubReads, mgr.members[2].SubReads
		if m2 != ops || st.RetriedReads != m0 || m0 > ops/2 || m0 == 0 {
			t.Errorf("member 0 took %d reads, member 2 %d, %d retries for %d reads; want every read served by member 2 after at most one retry",
				m0, m2, st.RetriedReads, ops)
		}
		if st.DegradedReads != ops {
			t.Errorf("%d degraded reads for %d chunk reads of a degraded set, want one each, retries not counted", st.DegradedReads, ops)
		}
	})
}
