// kvstore: an application-specific FTL on the raw PPA interface — the
// class of design the paper's §5.5 and future work motivate (e.g. Baidu's
// LSM KV store on open-channel SSDs).
//
// Instead of going through pblk's generic block abstraction, the store
// appends values to per-PU log blocks it manages itself: no mapping-table
// indirection on the data path, whole-block invalidation on log rotation
// (no sector-granular GC), and put/get streams placed on the exact PUs the
// application chooses. The store's PUs are a lightnvm reservation, so no
// other target can mount over them. The index lives in host memory, keyed
// to packed 64-bit PPAs.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/lightnvm"
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// kvStore is a tiny append-only KV store over raw PPAs.
type kvStore struct {
	view  *lightnvm.MediaView
	fmtr  ppa.Format
	pus   []int             // PU indices within the view
	index map[string]uint64 // key -> packed target PPA of the value's sector

	cursor map[int]*struct{ blk, page int }
}

func newKVStore(view *lightnvm.MediaView, pus []int) *kvStore {
	s := &kvStore{
		view: view, fmtr: view.Format(), pus: pus,
		index:  make(map[string]uint64),
		cursor: make(map[int]*struct{ blk, page int }),
	}
	for _, pu := range pus {
		s.cursor[pu] = &struct{ blk, page int }{}
	}
	return s
}

// put appends one 4K value. Values accumulate host-side until a full flash
// page per plane set can be programmed; for brevity this demo writes one
// page (all sectors carry the value replicated) per put on plane 0.
func (s *kvStore) put(p *sim.Proc, key string, value []byte) error {
	g := s.view.Geometry()
	pu := s.pus[len(s.index)%len(s.pus)] // spread keys across our PUs
	ch, puIdx := s.fmtr.PUAddr(pu)
	cur := s.cursor[pu]
	// Program one full page on every plane (the device's write rule), with
	// the value in the first sector.
	var addrs []ppa.Addr
	var data [][]byte
	for pl := 0; pl < g.PlanesPerPU; pl++ {
		for sec := 0; sec < g.SectorsPerPage; sec++ {
			addrs = append(addrs, ppa.Addr{Ch: ch, PU: puIdx, Plane: pl, Block: cur.blk, Page: cur.page, Sector: sec})
			if pl == 0 && sec == 0 {
				buf := make([]byte, g.SectorSize)
				copy(buf, value)
				data = append(data, buf)
			} else {
				data = append(data, nil)
			}
		}
	}
	c := s.view.Do(p, &ocssd.Vector{Op: ocssd.OpWrite, Addrs: addrs, Data: data})
	if c.Failed() {
		return fmt.Errorf("put %q: %v", key, c.FirstErr())
	}
	s.index[key] = s.fmtr.Encode(addrs[0])
	cur.page++
	if cur.page >= g.PagesPerBlock {
		cur.page = 0
		cur.blk++
	}
	return nil
}

// get reads the value's sector straight from its PPA: one vector read, no
// FTL lookup on the device.
func (s *kvStore) get(p *sim.Proc, key string) ([]byte, error) {
	packed, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("get %q: not found", key)
	}
	addr := s.fmtr.Decode(packed)
	c := s.view.Do(p, &ocssd.Vector{Op: ocssd.OpRead, Addrs: []ppa.Addr{addr}})
	if c.Failed() {
		return nil, c.FirstErr()
	}
	// c.Data aliases the device's page memory, valid only until the block
	// is erased; the caller gets a copy it may keep.
	return append([]byte(nil), c.Data[0]...), nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run puts and gets 64 values; it prints to w.
func run(w io.Writer) error {
	env := sim.NewEnv(5)
	dev, err := ocssd.New(env, ocssd.DefaultConfig(ocssd.WestlakeGeometry(8)))
	if err != nil {
		return err
	}
	// PUs [0, 32) are channels 0..3; the store takes one PU on each.
	view, err := lightnvm.Register("nvme0n1", dev).Reserve("kvstore", lightnvm.PURange{Begin: 0, End: 32})
	if err != nil {
		return err
	}
	env.Go("main", func(p *sim.Proc) {
		store := newKVStore(view, []int{0, 8, 16, 24})

		n := 64
		t0 := env.Now()
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("user:%04d", i)
			val := bytes.Repeat([]byte{byte(i)}, 128)
			if err = store.put(p, key, val); err != nil {
				return
			}
		}
		putDur := env.Now() - t0
		fmt.Fprintf(w, "put %d values in %v virtual (%.0f puts/s)\n",
			n, putDur.Round(time.Microsecond), float64(n)/putDur.Seconds())

		t0 = env.Now()
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("user:%04d", i)
			var val []byte
			if val, err = store.get(p, key); err != nil {
				return
			}
			if val[0] != byte(i) {
				err = fmt.Errorf("corruption at %s", key)
				return
			}
		}
		getDur := env.Now() - t0
		fmt.Fprintf(w, "got %d values in %v virtual (avg %v per get — one flash read, no FTL)\n",
			n, getDur.Round(time.Microsecond), (getDur / time.Duration(n)).Round(time.Microsecond))
		fmt.Fprintf(w, "device stats: %d flash programs, %d flash reads, %d cache hits\n",
			dev.Stats.FlashPrograms, dev.Stats.FlashReads, dev.Stats.CacheHits)
	})
	env.Run()
	return err
}
