package pblk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// metaHarness builds a pblk instance without starting workloads, for codec
// tests.
func metaHarness(t *testing.T) *Pblk {
	t.Helper()
	e := newEnv(t, testDeviceConfig())
	var k *Pblk
	e.run(func(p *sim.Proc) {
		k = e.newPblk(p, Config{ActivePUs: 4})
		if err := k.Stop(p); err != nil {
			t.Fatal(err)
		}
	})
	return k
}

// oobRecords are the three kinds of OOB record the write path produces:
// a user sector, a GC rewrite (valid, with a stamp drawn long after the
// data was first written) and padding.
var oobRecords = []struct {
	name  string
	lba   int64
	valid bool
	stamp uint64
}{
	{"user", 12345, true, 1000},
	{"user-lba0", 0, true, 1},
	{"user-max-lba", 1<<47 - 2, true, 1<<48 - 1},
	{"gc", 1 << 40, true, 1<<40 + 7},
	{"invalid", 1, false, 7},
	{"pad", padLBA, false, 99},
}

func TestOOBRoundTrip(t *testing.T) {
	k := new(Pblk)
	for _, c := range oobRecords {
		b := k.encodeOOB(c.lba, c.valid, c.stamp)
		if len(b) != oobBytes {
			t.Fatalf("%s: oob size %d", c.name, len(b))
		}
		lba, st, valid, ok := parseOOB(b)
		if !ok || lba != c.lba || valid != c.valid || st != c.stamp {
			t.Fatalf("%s: roundtrip (%d,%v,%d) -> (%d,%d,%v,%v)", c.name, c.lba, c.valid, c.stamp, lba, st, valid, ok)
		}
	}
}

// TestOOBCorruptionDetected: every single-bit error in the record is
// rejected, whether it lands in one of the 14 bytes the check covers or in
// the stored check itself.
func TestOOBCorruptionDetected(t *testing.T) {
	k := new(Pblk)
	for _, c := range oobRecords {
		b := k.encodeOOB(c.lba, c.valid, c.stamp)
		for i := 0; i < oobBytes; i++ {
			for bit := 0; bit < 8; bit++ {
				flipped := bytes.Clone(b)
				flipped[i] ^= 1 << bit
				if lba, st, valid, ok := parseOOB(flipped); ok {
					t.Fatalf("%s: flip of byte %d bit %d accepted as (%d,%d,%v)", c.name, i, bit, lba, st, valid)
				}
			}
		}
	}
	if _, _, _, ok := parseOOB(nil); ok {
		t.Fatal("nil oob parsed")
	}
	if _, _, _, ok := parseOOB(make([]byte, oobBytes)); ok {
		t.Fatal("zero oob parsed")
	}
}

func TestOpenMarkRoundTrip(t *testing.T) {
	k := metaHarness(t)
	g := &group{id: 7, seq: 99, prev: 3}
	b := make([]byte, k.geo.SectorSize)
	k.encodeOpenMarkInto(b, g)
	gid, seq, prev, ok := parseOpenMark(b)
	if !ok || gid != 7 || seq != 99 || prev != 3 {
		t.Fatalf("parsed (%d,%d,%d,%v)", gid, seq, prev, ok)
	}
	b2 := make([]byte, k.geo.SectorSize)
	k.encodeOpenMarkInto(b2, &group{id: 1, seq: 1, prev: -1})
	if _, _, prev, _ := parseOpenMark(b2); prev != padLBA {
		t.Fatal("prev=-1 not preserved")
	}
	b[5] ^= 0xff
	if _, _, _, ok := parseOpenMark(b); ok {
		t.Fatal("corrupt open mark accepted")
	}
}

func TestCloseMetaRoundTrip(t *testing.T) {
	k := metaHarness(t)
	rng := rand.New(rand.NewSource(4))
	lbas := make([]int64, k.dataSectors)
	for i := range lbas {
		if rng.Intn(5) == 0 {
			lbas[i] = padLBA
		} else {
			lbas[i] = rng.Int63n(1 << 30)
		}
	}
	stamps := make([]uint64, k.dataSectors)
	for i := range stamps {
		stamps[i] = uint64(5000 + i)
	}
	g := &group{id: 12, seq: 55, stream: streamGC}
	size := k.closeMetaSizeFor(k.dataSectors)
	b := k.encodeCloseMetaInto(make([]byte, size), g, lbas, stamps)
	seq, stream, got, gotStamps, ok := k.parseCloseMeta(b, nil, nil)
	if !ok || seq != 55 {
		t.Fatalf("parse failed: seq=%d ok=%v", seq, ok)
	}
	if stream != streamGC {
		t.Fatalf("stream = %d, want %d (gc)", stream, streamGC)
	}
	for i := range lbas {
		if got[i] != lbas[i] {
			t.Fatalf("lba %d: %d != %d", i, got[i], lbas[i])
		}
	}
	for i := range stamps {
		if gotStamps[i] != stamps[i] {
			t.Fatalf("stamp %d: %d != %d", i, gotStamps[i], stamps[i])
		}
	}
	// Short list gets padded.
	b2 := k.encodeCloseMetaInto(make([]byte, size), g, lbas[:10], stamps[:2])
	_, _, got2, _, ok := k.parseCloseMeta(b2, nil, nil)
	if !ok || got2[10] != padLBA {
		t.Fatal("short list not padded")
	}
	// Corruption in the body must be caught.
	b[len(b)-10] ^= 0x01
	if _, _, _, _, ok := k.parseCloseMeta(b, nil, nil); ok {
		t.Fatal("corrupt close meta accepted")
	}
}

func TestCloseMetaUnitsFixedPoint(t *testing.T) {
	k := metaHarness(t)
	unitBytes := k.unitSectors * k.geo.SectorSize
	need := k.closeMetaSizeFor(k.dataSectors)
	if need > k.metaUnits*unitBytes {
		t.Fatalf("close meta (%dB) does not fit %d units (%dB)", need, k.metaUnits, k.metaUnits*unitBytes)
	}
	// One fewer unit must not suffice (minimality).
	if k.metaUnits > 1 {
		smallerData := (k.unitsPerGroup - 1 - (k.metaUnits - 1)) * k.unitSectors
		if k.closeMetaSizeFor(smallerData) <= (k.metaUnits-1)*unitBytes {
			t.Fatal("metaUnits not minimal")
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	k := metaHarness(t)
	rng := rand.New(rand.NewSource(9))
	for i := range k.l2p {
		if rng.Intn(3) == 0 {
			k.l2p[i] = k.mediaEntry(k.sectorAddr(k.groups[5], rng.Intn(k.dataSectors)))
		}
	}
	k.seqCounter = 777
	k.groups[5].state = stClosed
	k.groups[5].seq = 10
	k.groups[5].stream = streamGC
	snap := k.snapshotBytes()

	// Apply onto a second instance.
	k2 := metaHarness(t)
	if err := k2.applySnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if k2.seqCounter != 777 {
		t.Fatal("seq not restored")
	}
	for i := range k.l2p {
		if k2.l2p[i] != k.l2p[i] {
			t.Fatalf("l2p[%d] mismatch", i)
		}
	}
	if g := k2.groups[5]; g.state != stClosed || g.seq != 10 || g.stream != streamGC {
		t.Fatalf("group not restored: %+v", g)
	}
	// Corruption rejected.
	snap[100] ^= 0xff
	if err := k2.applySnapshot(snap); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestL2PEncodingQuick(t *testing.T) {
	k := metaHarness(t)
	fn := func(pos uint64) bool {
		pos &= (1 << 61) - 1
		v := cacheEntry(pos)
		return isCache(v) && !isMedia(v) && cachePos(v) == pos
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
	// Media entries round-trip through the device format.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		g := k.groups[1+rng.Intn(len(k.groups)-1)]
		a := k.sectorAddr(g, rng.Intn(k.dataSectors))
		v := k.mediaEntry(a)
		if !isMedia(v) || isCache(v) {
			t.Fatalf("flags wrong for %v", a)
		}
		if k.mediaAddr(v) != a {
			t.Fatalf("media addr roundtrip: %v != %v", k.mediaAddr(v), a)
		}
	}
	if isCache(l2pUnmapped) || isMedia(l2pUnmapped) {
		t.Fatal("unmapped flags wrong")
	}
}

func TestSectorAddrMatchesMappingOrder(t *testing.T) {
	k := metaHarness(t)
	g := k.groups[3]
	idx := 0
	for unit := 1; unit < k.firstMetaUnit(); unit++ {
		for _, a := range k.unitAddrs(g, unit) {
			if got := k.sectorAddr(g, idx); got != a {
				t.Fatalf("dataIdx %d: sectorAddr %v != unitAddrs %v", idx, got, a)
			}
			idx++
		}
	}
	if idx != k.dataSectors {
		t.Fatalf("data sectors %d != %d", idx, k.dataSectors)
	}
}
