package lsmdb

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/sim"
)

// TestDecodeMalformedBlocks pins what both readers of the SSTable record
// format make of a block that is not what the builder wrote — zero-filled
// (a storage-less device), a count beyond the records present, a length
// field that runs past the block: a point lookup reports the key absent and
// the iterator ends the table, neither panics.
func TestDecodeMalformedBlocks(t *testing.T) {
	env := sim.NewEnv(1)
	dev := newMemDevice(8 << 20)
	db := openDB(t, env, dev, testConfig())
	ss := dev.SectorSize()

	keys := [][]byte{[]byte("apple"), []byte("berry"), []byte("cherry")}
	b := db.builders.Get()
	for i, k := range keys {
		b.add(k, bytes.Repeat([]byte{byte('A' + i)}, 40), uint64(i+1), i == 1)
	}
	b.finishBlock()
	whole := bytes.Clone(b.buf)
	if len(whole) != ss {
		t.Fatalf("built block is %d bytes, want one %d-byte sector", len(whole), ss)
	}
	second := 2 + tableRecHdr + len(keys[0]) + 40 // offset of the second record
	edit := func(fn func(blk []byte)) []byte {
		blk := bytes.Clone(whole)
		fn(blk)
		return blk
	}

	cases := []struct {
		name   string
		blocks [][]byte
		recs   int  // records the iterator yields before the table ends
		found  bool // a lookup of keys[2] in the last block finds it
	}{
		{"as built", [][]byte{whole}, 3, true},
		{"zero-filled", [][]byte{make([]byte, ss)}, 0, false},
		{"zero-filled, then as built", [][]byte{make([]byte, ss), whole}, 3, true},
		{"count beyond the records", [][]byte{edit(func(blk []byte) {
			binary.LittleEndian.PutUint16(blk[0:2], 7)
		})}, 3, true},
		{"value length past the block", [][]byte{edit(func(blk []byte) {
			binary.LittleEndian.PutUint32(blk[second+3:second+7], 1<<31)
		})}, 1, false},
		{"key length past the block", [][]byte{edit(func(blk []byte) {
			binary.LittleEndian.PutUint16(blk[second+1:second+3], 0xFFFF)
		})}, 1, false},
		{"empty key", [][]byte{edit(func(blk []byte) {
			binary.LittleEndian.PutUint16(blk[second+1:second+3], 0)
		})}, 1, false},
		{"header cut by the end of the block", [][]byte{edit(func(blk []byte) {
			// One record whose value ends 5 bytes short of the block, and a
			// count that promises another.
			binary.LittleEndian.PutUint16(blk[0:2], 2)
			binary.LittleEndian.PutUint32(blk[2+3:2+7], uint32(ss-5-2-tableRecHdr-len(keys[0])))
		})}, 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const at = 4 << 20
			meta := &tableMeta{off: at}
			for i, blk := range c.blocks {
				copy(dev.data[at+i*ss:], blk)
				meta.index = append(meta.index, indexEntry{off: int32(i * ss), len: int32(ss)})
			}
			last := c.blocks[len(c.blocks)-1]
			if _, _, found := parseBlockGet(last, keys[2]); found != c.found {
				t.Errorf("lookup found = %v, want %v", found, c.found)
			}
			recs := 0
			runDB(env, func(p *sim.Proc) {
				it := db.getIter(meta)
				defer db.putIter(it)
				for {
					ok, err := it.next(p)
					if err != nil {
						t.Error(err)
					}
					if !ok {
						break
					}
					if !bytes.Equal(it.key, keys[recs]) || it.seq != uint64(recs+1) || it.tomb != (recs == 1) {
						t.Errorf("record %d: key %q seq %d tomb %v", recs, it.key, it.seq, it.tomb)
					}
					recs++
				}
				if it.valid {
					t.Error("iterator still valid after the end of the table")
				}
			})
			if recs != c.recs {
				t.Errorf("iterator yielded %d records, want %d", recs, c.recs)
			}
		})
	}

	// A block cut short at any byte: a lookup finds a key only while its
	// whole record is inside.
	end := second + tableRecHdr + len(keys[1]) + 40 // end of the second record
	for n := 0; n <= len(whole); n++ {
		if _, tomb, found := parseBlockGet(whole[:n], keys[1]); found != (n >= end) || found && !tomb {
			t.Fatalf("block cut at %d bytes: found %v tomb %v, record ends at %d", n, found, tomb, end)
		}
	}
}
