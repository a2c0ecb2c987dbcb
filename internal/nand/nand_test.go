package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallDims() Dims {
	return Dims{Planes: 2, BlocksPerPlane: 4, PagesPerBlock: 8, SectorsPerPage: 4, SectorSize: 512, OOBPerPage: 64}
}

func newTestDie(cfg Config) *Die {
	return NewDie(smallDims(), cfg, rand.New(rand.NewSource(1)))
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := newTestDie(DefaultConfig())
	page := bytes.Repeat([]byte{0xab}, smallDims().PageBytes())
	oob := []byte("oob-metadata")
	if err := d.Program(0, 0, 0, page, oob); err != nil {
		t.Fatal(err)
	}
	got, gotOOB, err := d.Read(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("payload mismatch")
	}
	if !bytes.Equal(gotOOB, oob) {
		t.Fatalf("oob mismatch: %q", gotOOB)
	}
}

func TestSyntheticPayloadReadsNil(t *testing.T) {
	d := newTestDie(DefaultConfig())
	if err := d.Program(0, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, _, err := d.Read(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data != nil {
		t.Fatal("synthetic page returned data")
	}
}

func TestSequentialProgramConstraint(t *testing.T) {
	d := newTestDie(DefaultConfig())
	if err := d.Program(0, 0, 1, nil, nil); !errors.Is(err, ErrNonSequential) {
		t.Fatalf("out-of-order program: err = %v, want ErrNonSequential", err)
	}
	if err := d.Program(0, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(0, 0, 0, nil, nil); !errors.Is(err, ErrNotErased) {
		t.Fatalf("rewrite without erase: err = %v, want ErrNotErased", err)
	}
}

func TestEraseBeforeRewrite(t *testing.T) {
	d := newTestDie(DefaultConfig())
	for pg := 0; pg < smallDims().PagesPerBlock; pg++ {
		if err := d.Program(1, 2, pg, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Erase(1, 2); err != nil {
		t.Fatal(err)
	}
	if b, _, _ := d.blk(1, 2); b.writePtr != 0 {
		t.Fatal("erase did not reset write pointer")
	}
	if err := d.Program(1, 2, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if d.PECycles(1, 2) != 1 {
		t.Fatalf("PE cycles = %d, want 1", d.PECycles(1, 2))
	}
}

func TestReadUnwritten(t *testing.T) {
	d := newTestDie(DefaultConfig())
	if _, _, err := d.Read(0, 0, 0); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("err = %v, want ErrUnwritten", err)
	}
	if err := d.Program(0, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(0, 0, 1); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("read beyond write pointer: err = %v, want ErrUnwritten", err)
	}
}

func TestWrongPayloadSize(t *testing.T) {
	d := newTestDie(DefaultConfig())
	if err := d.Program(0, 0, 0, []byte{1, 2, 3}, nil); err == nil {
		t.Fatal("partial page payload accepted")
	}
	big := make([]byte, smallDims().OOBPerPage+1)
	if err := d.Program(0, 0, 0, nil, big); !errors.Is(err, ErrOOBTooLarge) {
		t.Fatalf("oversize OOB: err = %v", err)
	}
}

func TestWearOut(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PECycleLimit = 3
	d := newTestDie(cfg)
	for i := 0; i < 3; i++ {
		if err := d.Erase(0, 0); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if err := d.Erase(0, 0); !errors.Is(err, ErrWornOut) {
		t.Fatalf("err = %v, want ErrWornOut", err)
	}
	if !d.IsBad(0, 0) {
		t.Fatal("worn block not marked bad")
	}
	if err := d.Program(0, 0, 0, nil, nil); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program to bad block: err = %v", err)
	}
}

// TestDefaultMediaDoesNotWear: the default media is the fresh drive the
// paper measures, so no number of erases wears a block out or slows it, even
// past MLC's ~3000-cycle endurance.
func TestDefaultMediaDoesNotWear(t *testing.T) {
	d := newTestDie(DefaultConfig())
	for i := 0; i < 3001; i++ {
		if err := d.Erase(0, 0); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if f := d.WearFactor(0, 0); f != 1 {
		t.Fatalf("wear factor after 3001 erases = %v, want 1", f)
	}
}

func TestInjectedWriteFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteFailProb = 1.0
	d := newTestDie(cfg)
	if err := d.Program(0, 0, 0, nil, nil); !errors.Is(err, ErrWriteFail) {
		t.Fatalf("err = %v, want ErrWriteFail", err)
	}
	// Write pointer advanced: the page is consumed even on failure.
	if b, _, _ := d.blk(0, 0); b.writePtr != 1 {
		t.Fatalf("write ptr = %d after failed program, want 1", b.writePtr)
	}
	if d.Stats.ProgramFails != 1 {
		t.Fatal("failure not counted")
	}
}

func TestInjectedEraseFailureMarksBad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EraseFailProb = 1.0
	d := newTestDie(cfg)
	if err := d.Erase(0, 1); !errors.Is(err, ErrEraseFail) {
		t.Fatalf("err = %v, want ErrEraseFail", err)
	}
	if !d.IsBad(0, 1) {
		t.Fatal("erase-failed block not retired")
	}
}

func TestInjectedReadFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReadFailProb = 1.0
	d := newTestDie(cfg)
	if err := d.Program(0, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(0, 0, 0); !errors.Is(err, ErrReadFail) {
		t.Fatalf("err = %v, want ErrReadFail", err)
	}
}

// SetReadFailProb turns uncorrectable reads on and off on a live die: the
// pages it already holds fail while it is 1 and read again at 0.
func TestSetReadFailProbOnLiveDie(t *testing.T) {
	d := newTestDie(DefaultConfig())
	page := bytes.Repeat([]byte{0x5c}, smallDims().PageBytes())
	for pg := 0; pg < 2; pg++ {
		if err := d.Program(0, 0, pg, page, nil); err != nil {
			t.Fatal(err)
		}
	}
	d.SetReadFailProb(1)
	for pg := 0; pg < 2; pg++ {
		if _, _, err := d.Read(0, 0, pg); !errors.Is(err, ErrReadFail) {
			t.Fatalf("page %d at prob 1: err = %v, want ErrReadFail", pg, err)
		}
	}
	if d.Stats.ReadFails != 2 {
		t.Fatalf("ReadFails = %d, want 2", d.Stats.ReadFails)
	}
	if _, _, err := d.Read(0, 0, 2); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("unwritten page at prob 1: err = %v, want ErrUnwritten", err)
	}
	if d.Stats.ReadFails != 2 {
		t.Fatalf("an unwritten page counted as a read failure: ReadFails = %d", d.Stats.ReadFails)
	}
	d.SetReadFailProb(0)
	got, _, err := d.Read(0, 0, 1)
	if err != nil || !bytes.Equal(got, page) {
		t.Fatalf("read at prob 0: err = %v, payload intact = %v", err, bytes.Equal(got, page))
	}
}

func TestFactoryBadBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialBadBlockProb = 1.0
	d := newTestDie(cfg)
	if !d.IsBad(0, 0) || !d.IsBad(1, 3) {
		t.Fatal("factory bad blocks not marked")
	}
}

func TestWearFactorGrows(t *testing.T) {
	d := newTestDie(Config{PECycleLimit: 10, WearLatencyFactor: 0.5})
	if f := d.WearFactor(0, 0); f != 1 {
		t.Fatalf("fresh wear factor = %v, want 1", f)
	}
	for i := 0; i < 5; i++ {
		if err := d.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if f := d.WearFactor(0, 0); f != 1.25 {
		t.Fatalf("wear factor after 5/10 PE = %v, want 1.25", f)
	}
}

func TestMarkBad(t *testing.T) {
	d := newTestDie(DefaultConfig())
	if err := d.MarkBad(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(0, 2, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("read of bad block: err = %v", err)
	}
	if err := d.Erase(0, 2); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase of bad block: err = %v", err)
	}
}

func TestOutOfRangeAddresses(t *testing.T) {
	d := newTestDie(DefaultConfig())
	if err := d.Program(2, 0, 0, nil, nil); err == nil {
		t.Fatal("plane out of range accepted")
	}
	if err := d.Program(0, 4, 0, nil, nil); err == nil {
		t.Fatal("block out of range accepted")
	}
	if _, _, err := d.Read(0, 0, 99); err == nil {
		t.Fatal("page out of range accepted")
	}
}

func TestFailedProgramCorruptsPage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteFailProb = 1.0
	d := newTestDie(cfg)
	page := bytes.Repeat([]byte{0x5a}, smallDims().PageBytes())
	if err := d.Program(0, 0, 0, page, nil); !errors.Is(err, ErrWriteFail) {
		t.Fatalf("err = %v, want ErrWriteFail", err)
	}
	// A failed page must read back uncorrectable, not as silent zeros.
	if _, _, err := d.Read(0, 0, 0); !errors.Is(err, ErrReadFail) {
		t.Fatalf("read of failed page: err = %v, want ErrReadFail", err)
	}
}

func TestWearBERReadRetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PECycleLimit = 10
	cfg.BERWearCoeff = 1e-2 // rawBER = 1e-2 * (pe/10)^2
	cfg.ECCBER = 1e-3
	cfg.ReadRetryStep = 2e-3
	cfg.ReadRetryTiers = 3
	d := newTestDie(cfg)
	if err := d.Program(0, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	// pe=0: rawBER 0, within plain ECC.
	if _, _, r, err := d.ReadRetry(0, 0, 0); err != nil || r != 0 {
		t.Fatalf("fresh block: retries=%d err=%v", r, err)
	}
	// pe=5: rawBER 2.5e-3 -> ceil(1.5e-3/2e-3) = 1 tier.
	for i := 0; i < 5; i++ {
		if err := d.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Program(0, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, r, err := d.ReadRetry(0, 0, 0); err != nil || r != 1 {
		t.Fatalf("mid-life block: retries=%d err=%v, want 1 tier", r, err)
	}
	// pe=9: rawBER 8.1e-3 -> ceil(7.1e-3/2e-3) = 4 tiers > 3 available.
	for i := 0; i < 4; i++ {
		if err := d.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Program(0, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.ReadRetry(0, 0, 0); !errors.Is(err, ErrReadFail) {
		t.Fatalf("end-of-life block: err = %v, want ErrReadFail", err)
	}
	if d.Stats.ReadRetries == 0 {
		t.Fatal("retry tiers not counted")
	}
}

func TestRetentionBER(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BERRetentionCoeff = 1e-3 // per accelerated second
	cfg.RetentionAccel = 1
	cfg.ECCBER = 1e-3
	cfg.ReadRetryStep = 1e-3
	cfg.ReadRetryTiers = 4
	d := newTestDie(cfg)
	now := int64(0)
	d.SetNow(func() int64 { return now })
	if err := d.Program(0, 0, 0, nil, nil); err != nil { // retention clock starts at 0
		t.Fatal(err)
	}
	if _, _, r, err := d.ReadRetry(0, 0, 0); err != nil || r != 0 {
		t.Fatalf("fresh data: retries=%d err=%v", r, err)
	}
	now = 3e9 // 3 virtual seconds: rawBER 3e-3 -> 2 tiers
	if _, _, r, err := d.ReadRetry(0, 0, 0); err != nil || r != 2 {
		t.Fatalf("aged data: retries=%d err=%v, want 2 tiers", r, err)
	}
	now = 10e9 // rawBER 1e-2 -> 9 tiers > 4: data gone
	if _, _, _, err := d.ReadRetry(0, 0, 0); !errors.Is(err, ErrReadFail) {
		t.Fatalf("expired data: err = %v, want ErrReadFail", err)
	}
	// A refresh (erase + reprogram) resets the retention clock.
	if err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Program(0, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, r, err := d.ReadRetry(0, 0, 0); err != nil || r != 0 {
		t.Fatalf("refreshed data: retries=%d err=%v", r, err)
	}
}

func TestReadDisturbBER(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BERDisturbCoeff = 1e-4 // per read since erase
	cfg.ECCBER = 1e-3
	cfg.ReadRetryStep = 1e-3
	cfg.ReadRetryTiers = 8
	d := newTestDie(cfg)
	if err := d.Program(0, 0, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Reads 1..10 stay within ECC (disturb counted before evaluation).
	for i := 0; i < 10; i++ {
		if _, _, r, err := d.ReadRetry(0, 0, 0); err != nil || r != 0 {
			t.Fatalf("read %d: retries=%d err=%v", i, r, err)
		}
	}
	// Hammer the block: by read 30 the disturb term needs retry tiers.
	sawRetry := false
	for i := 0; i < 20; i++ {
		_, _, r, err := d.ReadRetry(0, 0, 0)
		if err != nil {
			t.Fatalf("read %d failed: %v", 11+i, err)
		}
		if r > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("read disturb never pushed BER past plain ECC")
	}
	if b, _, _ := d.blk(0, 0); b.reads != 30 {
		t.Fatalf("block reads = %d, want 30", b.reads)
	}
}

func TestGrownBadBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PECycleLimit = 100
	cfg.GrownBadProb = 1.0 // p = (pe/100)^4: certain only at end of life
	d := newTestDie(cfg)
	// Young blocks essentially never grow bad.
	for i := 0; i < 5; i++ {
		if err := d.Erase(0, 0); err != nil {
			t.Fatalf("young erase %d: %v", i, err)
		}
	}
	// Age a different block to near the limit; it must grow bad before
	// hitting the hard ErrWornOut wall.
	grown := false
	for i := 0; i < 99; i++ {
		if err := d.Erase(0, 1); err != nil {
			if !errors.Is(err, ErrEraseFail) {
				t.Fatalf("erase %d: %v", i, err)
			}
			grown = true
			break
		}
	}
	if !grown {
		t.Fatal("no grown bad block across a full lifetime at GrownBadProb=1")
	}
	if d.Stats.GrownBad != 1 {
		t.Fatalf("GrownBad = %d, want 1", d.Stats.GrownBad)
	}
	if !d.IsBad(0, 1) {
		t.Fatal("grown bad block not retired")
	}
}

// Property: for any sequence of programs with random payloads, reading back
// any programmed page returns exactly what was last programmed there since
// the last erase.
func TestQuickProgramReadConsistency(t *testing.T) {
	fn := func(seed int64, ops []uint8) bool {
		d := NewDie(smallDims(), DefaultConfig(), rand.New(rand.NewSource(seed)))
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		shadow := map[[3]int][]byte{} // (plane, block, page) -> payload
		ptr := map[[2]int]int{}       // (plane, block) -> write ptr
		for _, op := range ops {
			plane := int(op) % 2
			block := int(op>>1) % 4
			switch {
			case op%5 == 0 && ptr[[2]int{plane, block}] > 0:
				if err := d.Erase(plane, block); err != nil {
					return false
				}
				for pg := 0; pg < 8; pg++ {
					delete(shadow, [3]int{plane, block, pg})
				}
				ptr[[2]int{plane, block}] = 0
			default:
				pg := ptr[[2]int{plane, block}]
				if pg >= 8 {
					continue
				}
				payload := make([]byte, smallDims().PageBytes())
				rng.Read(payload)
				if err := d.Program(plane, block, pg, payload, nil); err != nil {
					return false
				}
				shadow[[3]int{plane, block, pg}] = payload
				ptr[[2]int{plane, block}] = pg + 1
			}
		}
		for key, want := range shadow {
			got, _, err := d.Read(key[0], key[1], key[2])
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// storeDims is one plane of Westlake-sized blocks: 256 pages of 16 KiB.
func storeDims() Dims {
	return Dims{Planes: 1, BlocksPerPlane: 4, PagesPerBlock: 256, SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64}
}

func TestBlockHoldsOnlyPagesProgrammedWithBytes(t *testing.T) {
	dims := storeDims()
	d := NewDie(dims, DefaultConfig(), rand.New(rand.NewSource(1)))
	page := bytes.Repeat([]byte{0x42}, dims.PageBytes())
	if err := d.Program(0, 0, 0, page, nil); err != nil {
		t.Fatal(err)
	}
	for pg := 1; pg < dims.PagesPerBlock; pg++ {
		if err := d.Program(0, 0, pg, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := d.PayloadBytes(), int64(dims.PageBytes()); got != want {
		t.Fatalf("PayloadBytes = %d after one payload page and %d nil pages, want %d",
			got, dims.PagesPerBlock-1, want)
	}
	// Erase keeps the buffer, on the free list, for the next program.
	if err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := d.PayloadBytes(), int64(dims.PageBytes()); got != want {
		t.Fatalf("PayloadBytes = %d after erase, want %d (free list)", got, want)
	}
}

func TestProgramEraseCyclesAllocateNothing(t *testing.T) {
	dims := storeDims()
	d := NewDie(dims, DefaultConfig(), rand.New(rand.NewSource(1)))
	page := bytes.Repeat([]byte{0x42}, dims.PageBytes())
	oob := make([]byte, dims.OOBPerPage)
	cycle := func() {
		for pg := 0; pg < dims.PagesPerBlock; pg++ {
			if err := d.Program(0, 1, pg, page, oob); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Erase(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: page table, OOB arena, buffers, free-list capacity
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Fatalf("program/erase cycle allocates %.0f times after warm-up, want 0", n)
	}
	if got, want := d.PayloadBytes(), int64(dims.PagesPerBlock*dims.PageBytes()); got != want {
		t.Fatalf("PayloadBytes = %d after cycling one block, want %d", got, want)
	}
}

func TestMixedNilAndPayloadPages(t *testing.T) {
	dims := smallDims()
	d := newTestDie(DefaultConfig())
	fill := func(pg, cycle int) []byte {
		return bytes.Repeat([]byte{byte(0x10*cycle + pg + 1)}, dims.PageBytes())
	}
	// Cycle 0 stores bytes in even pages, cycle 1 in odd ones, so every
	// table slot and recycled buffer changes role across the erase.
	for cycle := 0; cycle < 2; cycle++ {
		for pg := 0; pg < dims.PagesPerBlock; pg++ {
			var data, oob []byte
			if pg%2 == cycle {
				data, oob = fill(pg, cycle), []byte{byte(pg), byte(cycle)}
			}
			if err := d.Program(0, 0, pg, data, oob); err != nil {
				t.Fatal(err)
			}
		}
		for pg := 0; pg < dims.PagesPerBlock; pg++ {
			data, oob, err := d.Read(0, 0, pg)
			if err != nil {
				t.Fatal(err)
			}
			if pg%2 != cycle {
				if data != nil || oob != nil {
					t.Fatalf("cycle %d: nil page %d read back data=%v oob=%v", cycle, pg, data != nil, oob)
				}
				continue
			}
			if !bytes.Equal(data, fill(pg, cycle)) || !bytes.Equal(oob, []byte{byte(pg), byte(cycle)}) {
				t.Fatalf("cycle %d: page %d read back wrong payload or oob %v", cycle, pg, oob)
			}
		}
		if got, want := d.PayloadBytes(), int64(dims.PagesPerBlock/2*dims.PageBytes()); got != want {
			t.Fatalf("cycle %d: PayloadBytes = %d, want %d", cycle, got, want)
		}
		if err := d.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// retireWays are the four ways block (0,1) can go bad after one good
// program/erase cycle.
var retireWays = []struct {
	name   string
	cfg    func(*Config)
	retire func(*Die) error // must leave block (0,1) bad
	want   error
}{
	{"MarkBad", func(*Config) {}, func(d *Die) error { return d.MarkBad(0, 1) }, nil},
	{"WornOut", func(c *Config) { c.PECycleLimit = 1 }, func(d *Die) error { return d.Erase(0, 1) }, ErrWornOut},
	{"EraseFail", func(*Config) {}, func(d *Die) error { d.cfg.EraseFailProb = 1; return d.Erase(0, 1) }, ErrEraseFail},
	{"GrownBad", func(c *Config) { c.PECycleLimit = 2 }, func(d *Die) error { d.cfg.GrownBadProb = 1e9; return d.Erase(0, 1) }, ErrEraseFail},
}

func TestRetiredBlockReleasesPayload(t *testing.T) {
	dims := smallDims()
	for _, tc := range retireWays {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.cfg(&cfg)
			d := newTestDie(cfg)
			page := bytes.Repeat([]byte{0x77}, dims.PageBytes())
			program := func() {
				for pg := 0; pg < dims.PagesPerBlock; pg++ {
					if err := d.Program(0, 1, pg, page, []byte{byte(pg)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// One good cycle first, so the second fill drains the free list
			// and the block's buffers are recycled ones.
			program()
			if err := d.Erase(0, 1); err != nil {
				t.Fatal(err)
			}
			program()
			held, _, err := d.Read(0, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.retire(d); !errors.Is(err, tc.want) {
				t.Fatalf("retire: err = %v, want %v", err, tc.want)
			}
			if !d.IsBad(0, 1) {
				t.Fatal("block not bad")
			}
			if got := d.PayloadBytes(); got != 0 {
				t.Fatalf("PayloadBytes = %d after the only block with payload went bad, want 0", got)
			}
			if b, _, _ := d.blk(0, 1); b.pages != nil || b.oob != nil || b.oobLen != nil {
				t.Fatal("bad block still pins its page table or OOB arena")
			}
			// Dropped, not recycled: a slice read before the retirement must
			// survive later programs elsewhere on the die.
			other := bytes.Repeat([]byte{0x99}, dims.PageBytes())
			if err := d.Program(1, 0, 0, other, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(held, page) {
				t.Fatal("slice held across the retirement was overwritten")
			}
		})
	}
}
