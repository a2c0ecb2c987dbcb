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
			if r := float64(mgr.Member(id).SubReads); r < 0.9*mean || r > 1.1*mean {
				t.Errorf("member %d served %.0f chunk reads, want within 10%% of %.0f", id, r, mean)
			}
		}
	})
}

// A sub-read the fault injector trips completes without entering the member
// queue, so a rule that ranked replicas by requests in flight would send
// every retry straight back to the one that fails. Taking them in turn, a
// tripped read costs one retry and the user sees no error.
func TestMirrorReadRetryAvoidsFailedReplica(t *testing.T) {
	for _, rate := range []float64{1, 0.9} {
		t.Run(fmt.Sprint("rate=", rate), func(t *testing.T) {
			runSim(t, 11, func(p *sim.Proc, env *sim.Env) {
				const size, ops = 4 << 20, 4000
				mgr, v := prepared(t, p, env, 2, Mirror(0, 1), size)
				mgr.InjectFaults(0, FaultConfig{Seed: 5, ReadErrorRate: rate})
				res, err := fio.Run(p, v, fio.Job{Name: "r", Pattern: fio.RandRead, BS: 64 << 10, QD: 16, Size: size, MaxOps: ops})
				if err != nil {
					t.Fatal(err)
				}
				st := v.Stats()
				t.Logf("errors=%d retried=%d injected=%d", res.Errors, st.RetriedReads, mgr.Member(0).Injected)
				if res.Errors != 0 {
					t.Errorf("%d of %d reads failed beside a healthy replica", res.Errors, ops)
				}
				if st.RetriedReads == 0 || st.RetriedReads > ops {
					t.Errorf("%d retries for %d reads, want one per tripped read at most", st.RetriedReads, ops)
				}
			})
		})
	}
}
