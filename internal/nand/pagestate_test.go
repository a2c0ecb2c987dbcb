package nand

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// stateDims is a two-block die for the per-page state tests. They run on 33
// and 300 pages a block: both cross a word of the state bitmaps and end in a
// partial one, 33 by a single bit, 300 past what a byte-sized index reaches.
func stateDims(pages int) Dims {
	return Dims{Planes: 1, BlocksPerPlane: 2, PagesPerBlock: pages, SectorsPerPage: 1, SectorSize: 32, OOBPerPage: 16}
}

var statePages = []int{33, 300}

// The five things a programmed page can be.
const (
	bytesFullOOB = iota // payload and OOBPerPage bytes of OOB: metadata, lsmdb, verified traffic
	nilFullOOB          // no payload, full OOB: what ocssd.commitProgram stores for fio traffic
	nilShortOOB         // no payload, 10 bytes of OOB: a direct Die.Program caller
	nilNoOOB            // neither
	lostCharge          // the program failed
	pageShapes
)

// wantPage is what a page must read back: exactly these slices (nil stays
// nil), or ErrReadFail and no slices when lost.
type wantPage struct {
	data, oob []byte
	lost      bool
}

// programMixed programs every page of block (0, blk), page p in shape
// (p+cycle) % pageShapes and with bytes no other page or cycle uses (never 0,
// never the 0xDB race builds poison with), and returns what each page must
// read back.
func programMixed(t *testing.T, d *Die, blk, cycle int) []wantPage {
	t.Helper()
	dims := d.Dims()
	fill := func(p, n, salt int) []byte {
		return bytes.Repeat([]byte{byte(1 + (7*p+31*cycle+salt)%200)}, n)
	}
	want := make([]wantPage, dims.PagesPerBlock)
	for p := range want {
		var w wantPage
		switch (p + cycle) % pageShapes {
		case bytesFullOOB:
			w.data, w.oob = fill(p, dims.PageBytes(), 0), fill(p, dims.OOBPerPage, 1)
		case nilFullOOB:
			w.oob = fill(p, dims.OOBPerPage, 2)
		case nilShortOOB:
			w.oob = fill(p, 10, 3)
		case lostCharge:
			w.lost = true
			d.cfg.WriteFailProb = 1
		}
		err := d.Program(0, blk, p, w.data, w.oob)
		d.cfg.WriteFailProb = 0
		if w.lost {
			w.data, w.oob = nil, nil
			if !errors.Is(err, ErrWriteFail) {
				t.Fatalf("cycle %d page %d: err = %v, want ErrWriteFail", cycle, p, err)
			}
		} else if err != nil {
			t.Fatalf("cycle %d page %d: %v", cycle, p, err)
		}
		want[p] = w
	}
	return want
}

func checkPages(t *testing.T, d *Die, blk int, want []wantPage) {
	t.Helper()
	for p, w := range want {
		data, oob, err := d.Read(0, blk, p)
		if w.lost != errors.Is(err, ErrReadFail) || (!w.lost && err != nil) {
			t.Fatalf("page %d: err = %v, want lost = %v", p, err, w.lost)
		}
		if (data == nil) != (w.data == nil) || !bytes.Equal(data, w.data) {
			t.Fatalf("page %d: data %d bytes (nil %v) starting %.4x, want %d bytes (nil %v) starting %.4x",
				p, len(data), data == nil, data, len(w.data), w.data == nil, w.data)
		}
		if (oob == nil) != (w.oob == nil) || !bytes.Equal(oob, w.oob) {
			t.Fatalf("page %d: oob %x (nil %v), want %x (nil %v)", p, oob, oob == nil, w.oob, w.oob == nil)
		}
	}
}

// heldPages counts the pages of want that own a payload buffer.
func heldPages(want []wantPage) (n int) {
	for _, w := range want {
		if w.data != nil {
			n++
		}
	}
	return n
}

// One block holding all five shapes reads back exactly what was programmed,
// and an erase leaves nothing of it behind: every page takes every shape over
// the five cycles, and between them the block is refilled with pages that own
// nothing, which must read nil whatever their predecessors owned.
func TestPageStateMixedBlock(t *testing.T) {
	for _, pages := range statePages {
		t.Run(fmt.Sprint(pages), func(t *testing.T) {
			dims := stateDims(pages)
			d := NewDie(dims, DefaultConfig(), rand.New(rand.NewSource(1)))
			for cycle := 0; cycle < pageShapes; cycle++ {
				want := programMixed(t, d, 0, cycle)
				checkPages(t, d, 0, want)
				if got := d.held; got != heldPages(want) {
					t.Fatalf("cycle %d: block holds %d buffers, want %d", cycle, got, heldPages(want))
				}
				readAll := func() {
					for p := range want {
						d.ReadRetry(0, 0, p)
					}
				}
				if n := testing.AllocsPerRun(3, readAll); n != 0 {
					t.Fatalf("cycle %d: reading one page of every shape allocates %.0f times, want 0", cycle, n)
				}
				if err := d.Erase(0, 0); err != nil {
					t.Fatal(err)
				}
				for p := 0; p < pages; p++ {
					if err := d.Program(0, 0, p, nil, nil); err != nil {
						t.Fatal(err)
					}
				}
				checkPages(t, d, 0, make([]wantPage, pages))
				if err := d.Erase(0, 0); err != nil {
					t.Fatal(err)
				}
				if d.held != 0 {
					t.Fatalf("cycle %d: erased die still holds %d buffers", cycle, d.held)
				}
			}
		})
	}
}

// A block that went bad keeps no per-page state, whichever way it went:
// retiring it again (pblk marks a block bad after its erase failed) must not
// release its buffers a second time.
func TestPageStateBadBlockKeepsNoBits(t *testing.T) {
	for _, pages := range statePages {
		for _, way := range retireWays {
			t.Run(fmt.Sprintf("%d-%s", pages, way.name), func(t *testing.T) {
				cfg := DefaultConfig()
				way.cfg(&cfg)
				d := NewDie(stateDims(pages), cfg, rand.New(rand.NewSource(1)))
				programMixed(t, d, 1, 0)
				if err := d.Erase(0, 1); err != nil {
					t.Fatal(err)
				}
				programMixed(t, d, 1, 1)
				if err := way.retire(d); !errors.Is(err, way.want) {
					t.Fatalf("retire: err = %v, want %v", err, way.want)
				}
				_, st, _ := d.blk(0, 1)
				for w, word := range st {
					if word != 0 {
						t.Fatalf("bad block keeps state word %d = %#x", w, word)
					}
				}
				if err := d.MarkBad(0, 1); err != nil {
					t.Fatal(err)
				}
				if d.held != 0 {
					t.Fatalf("die holds %d buffers after its only programmed block went bad, want 0", d.held)
				}
			})
		}
	}
}

// scattered is BenchmarkReadScattered's fixture, built once per test binary:
// the benchmark function runs several times while the framework settles b.N.
var scattered struct {
	once sync.Once
	dies []*Die
	at   []uint32 // die<<16 | plane<<14 | block<<8 | page, uniformly random
}

// BenchmarkReadScattered reads uniformly random pages of a Westlake(24)-shaped
// die set (128 dies × 4 planes × 24 blocks × 256 pages) filled the way pblk
// fills a device under synthetic load: page 0 of every block carries bytes
// (group metadata), every other page is payload-less, all have full OOB. The
// 12 288 block headers and their per-page state exceed any L2, so the figure
// is dominated by the cache lines one read visits — what the benchmark
// ladder's cache-resident span cannot see (DESIGN.md §"Host memory"). Pages
// and OOB are kept small: a read slices them, it never dereferences them.
func BenchmarkReadScattered(b *testing.B) {
	const nDies = 128
	dims := Dims{Planes: 4, BlocksPerPlane: 24, PagesPerBlock: 256, SectorsPerPage: 4, SectorSize: 512, OOBPerPage: 16}
	scattered.once.Do(func() {
		page, oob := make([]byte, dims.PageBytes()), make([]byte, dims.OOBPerPage)
		for i := 0; i < nDies; i++ {
			d := NewDie(dims, DefaultConfig(), rand.New(rand.NewSource(int64(i))))
			for pl := 0; pl < dims.Planes; pl++ {
				for blk := 0; blk < dims.BlocksPerPlane; blk++ {
					data := page
					for pg := 0; pg < dims.PagesPerBlock; pg++ {
						if err := d.Program(pl, blk, pg, data, oob); err != nil {
							b.Fatal(err)
						}
						data = nil
					}
				}
			}
			scattered.dies = append(scattered.dies, d)
		}
		rng := rand.New(rand.NewSource(1))
		scattered.at = make([]uint32, 1<<20)
		for i := range scattered.at {
			scattered.at[i] = uint32(rng.Intn(nDies))<<16 | uint32(rng.Intn(dims.Planes))<<14 |
				uint32(rng.Intn(dims.BlocksPerPlane))<<8 | uint32(rng.Intn(dims.PagesPerBlock))
		}
	})
	dies, at := scattered.dies, scattered.at
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := at[i&(len(at)-1)]
		_, oob, _, err := dies[a>>16].ReadRetry(int(a>>14&3), int(a>>8&63), int(a&255))
		if err != nil || len(oob) != dims.OOBPerPage {
			b.Fatalf("read %#x: oob %d bytes, err %v", a, len(oob), err)
		}
	}
}
