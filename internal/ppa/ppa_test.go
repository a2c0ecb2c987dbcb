package ppa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func westlake() Geometry {
	return Geometry{
		Channels: 16, PUsPerChannel: 8, PlanesPerPU: 4,
		BlocksPerPlane: 1067, PagesPerBlock: 256,
		SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64,
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := westlake().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := westlake()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Fatal("zero channels accepted")
	}
	bad = westlake()
	bad.OOBPerPage = -1
	if bad.Validate() == nil {
		t.Fatal("negative OOB accepted")
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := westlake()
	if got := g.TotalPUs(); got != 128 {
		t.Fatalf("TotalPUs = %d, want 128", got)
	}
	if got := g.PageSize(); got != 16384 {
		t.Fatalf("PageSize = %d, want 16384", got)
	}
	// The paper's drive: 2 TB class.
	if tb := float64(g.TotalBytes()) / 1e12; tb < 2.0 || tb > 2.5 {
		t.Fatalf("capacity = %.2f TB, want ~2.2 TB", tb)
	}
	if g.TotalSectors()*int64(g.SectorSize) != g.TotalBytes() {
		t.Fatal("sector accounting inconsistent")
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {1067, 11}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := int(bitsFor(c.n)); got != c.want {
			t.Errorf("bitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f, err := NewFormat(westlake())
	if err != nil {
		t.Fatal(err)
	}
	fn := func(ch, pu, pl, blk, pg, sec uint16) bool {
		g := westlake()
		a := Addr{
			Ch:     int(ch) % g.Channels,
			PU:     int(pu) % g.PUsPerChannel,
			Plane:  int(pl) % g.PlanesPerPU,
			Block:  int(blk) % g.BlocksPerPlane,
			Page:   int(pg) % g.PagesPerBlock,
			Sector: int(sec) % g.SectorsPerPage,
		}
		return f.Decode(f.Encode(a)) == a
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressHoles(t *testing.T) {
	// 1067 blocks need 11 bits; blocks 1067..2047 are holes (paper §3.1).
	f, err := NewFormat(westlake())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Valid(Addr{Block: 1066}) {
		t.Fatal("block 1066 should be valid")
	}
	if f.Valid(Addr{Block: 1067}) {
		t.Fatal("block 1067 should be an address hole")
	}
	if f.Valid(Addr{Ch: 16}) {
		t.Fatal("channel 16 should be invalid")
	}
	if f.Valid(Addr{Sector: -1}) {
		t.Fatal("negative sector should be invalid")
	}
}

func TestSectorIndexRoundTrip(t *testing.T) {
	f, _ := NewFormat(westlake())
	rng := rand.New(rand.NewSource(7))
	g := westlake()
	for i := 0; i < 2000; i++ {
		a := Addr{
			Ch:     rng.Intn(g.Channels),
			PU:     rng.Intn(g.PUsPerChannel),
			Plane:  rng.Intn(g.PlanesPerPU),
			Block:  rng.Intn(g.BlocksPerPlane),
			Page:   rng.Intn(g.PagesPerBlock),
			Sector: rng.Intn(g.SectorsPerPage),
		}
		idx := f.SectorIndex(a)
		if idx < 0 || idx >= g.TotalSectors() {
			t.Fatalf("index %d out of range for %v", idx, a)
		}
		if back := f.FromSectorIndex(idx); back != a {
			t.Fatalf("FromSectorIndex(%d) = %v, want %v", idx, back, a)
		}
	}
}

func TestSectorIndexDense(t *testing.T) {
	g := Geometry{Channels: 2, PUsPerChannel: 2, PlanesPerPU: 2, BlocksPerPlane: 3,
		PagesPerBlock: 4, SectorsPerPage: 2, SectorSize: 4096}
	f, _ := NewFormat(g)
	seen := make(map[int64]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for pu := 0; pu < g.PUsPerChannel; pu++ {
			for pl := 0; pl < g.PlanesPerPU; pl++ {
				for b := 0; b < g.BlocksPerPlane; b++ {
					for pg := 0; pg < g.PagesPerBlock; pg++ {
						for s := 0; s < g.SectorsPerPage; s++ {
							idx := f.SectorIndex(Addr{ch, pu, pl, b, pg, s})
							if seen[idx] {
								t.Fatalf("duplicate index %d", idx)
							}
							seen[idx] = true
						}
					}
				}
			}
		}
	}
	if int64(len(seen)) != g.TotalSectors() {
		t.Fatalf("indexed %d sectors, want %d", len(seen), g.TotalSectors())
	}
}

func TestGlobalPU(t *testing.T) {
	f, _ := NewFormat(westlake())
	a := Addr{Ch: 3, PU: 5}
	if got := f.GlobalPU(a); got != 3*8+5 {
		t.Fatalf("GlobalPU = %d, want 29", got)
	}
	ch, pu := f.PUAddr(29)
	if ch != 3 || pu != 5 {
		t.Fatalf("PUAddr(29) = (%d,%d), want (3,5)", ch, pu)
	}
}

func TestFormatTooWide(t *testing.T) {
	g := westlake()
	g.BlocksPerPlane = 1 << 30
	g.PagesPerBlock = 1 << 30
	g.Channels = 1 << 10
	if _, err := NewFormat(g); err == nil {
		t.Fatal("format exceeding 64 bits accepted")
	}
}

func TestEncodePacksHierarchically(t *testing.T) {
	// A higher channel must always encode to a larger value than any
	// address on a lower channel (MSB ordering, paper Figure 2).
	f, _ := NewFormat(westlake())
	lo := f.Encode(Addr{Ch: 2, PU: 7, Plane: 3, Block: 1066, Page: 255, Sector: 3})
	hi := f.Encode(Addr{Ch: 3})
	if lo >= hi {
		t.Fatalf("channel ordering broken: ch2-max=%d >= ch3-min=%d", lo, hi)
	}
}

// repoGeometries is every device shape the repository builds, plus one with
// no power-of-two dimension.
func repoGeometries() map[string]Geometry {
	shape := func(ch, pu, pl, blk, pg int) Geometry {
		return Geometry{Channels: ch, PUsPerChannel: pu, PlanesPerPU: pl,
			BlocksPerPlane: blk, PagesPerBlock: pg, SectorsPerPage: 4, SectorSize: 4096, OOBPerPage: 64}
	}
	odd := shape(3, 5, 3, 37, 24)
	odd.SectorsPerPage = 3
	return map[string]Geometry{
		"westlake-24":      shape(16, 8, 4, 24, 256), // ocssd.WestlakeGeometry(24)
		"westlake-1067":    westlake(),               // the paper's 2 TB Westlake
		"volume-member-64": shape(4, 2, 2, 64, 32),   // volume.DefaultDeviceConfig(64)
		"wa-64":            shape(4, 2, 4, 64, 256),  // harness waGeometry
		"wa-e2e-64":        shape(4, 2, 2, 64, 32),   // harness waE2EGeometry
		"lifetime-64":      shape(4, 2, 4, 64, 32),   // harness lifetimeGeometry
		"p3700-64":         shape(8, 4, 4, 64, 256),  // nvmedev.P3700Geometry
		"pblk-test":        shape(2, 2, 2, 40, 32),   // pblk's test device
		"odd":              odd,                      // 3 ch x 5 PUs x 3 planes
	}
}

// TestPackedFieldsMatchDecode: on random valid addresses of every shape,
// Encode round-trips through Decode, and each packed accessor reads the
// field Decode would.
func TestPackedFieldsMatchDecode(t *testing.T) {
	for name, g := range repoGeometries() {
		f, err := NewFormat(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(26))
		max := Addr{g.Channels - 1, g.PUsPerChannel - 1, g.PlanesPerPU - 1,
			g.BlocksPerPlane - 1, g.PagesPerBlock - 1, g.SectorsPerPage - 1}
		addrs := []Addr{{}, max}
		for i := 0; i < 5000; i++ {
			addrs = append(addrs, Addr{
				Ch: rng.Intn(g.Channels), PU: rng.Intn(g.PUsPerChannel),
				Plane: rng.Intn(g.PlanesPerPU), Block: rng.Intn(g.BlocksPerPlane),
				Page: rng.Intn(g.PagesPerBlock), Sector: rng.Intn(g.SectorsPerPage),
			})
		}
		for _, a := range addrs {
			v := f.Encode(a)
			d := f.Decode(v)
			if d != a {
				t.Fatalf("%s: Decode(Encode(%v)) = %v", name, a, d)
			}
			if got, want := f.GlobalPUOf(v), f.GlobalPU(d); got != want {
				t.Fatalf("%s: GlobalPUOf(%v) = %d, want %d", name, a, got, want)
			}
			if got := f.BlockOf(v); got != d.Block {
				t.Fatalf("%s: BlockOf(%v) = %d", name, a, got)
			}
			if pl, sec := f.PlaneSectorOf(v); pl != d.Plane || sec != d.Sector {
				t.Fatalf("%s: PlaneSectorOf(%v) = (%d, %d)", name, a, pl, sec)
			}
		}
	}
}

var sinkInt int

// BenchmarkFormat is the per-sector address work: packing a unit's
// address, decoding one into a vector command, and finding a mapping's
// group from the packed PU and block fields.
func BenchmarkFormat(b *testing.B) {
	f, _ := NewFormat(westlake())
	a := Addr{Ch: 3, PU: 5, Plane: 1, Block: 900, Page: 100, Sector: 2}
	v := f.Encode(a)
	b.Run("Encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Sector = i & 3
			sinkInt += int(f.Encode(a))
		}
	})
	b.Run("Decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkInt += f.Decode(v + uint64(i&3)).Block
		}
	})
	b.Run("GroupFields", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := v + uint64(i&3)
			sinkInt += f.GlobalPUOf(w)*1067 + f.BlockOf(w)
		}
	})
}
