package lsmdb

import "bytes"

// The memtable is a slab-allocated skiplist: nodes live in one []mnode
// slab and key/value bytes in one arena, both recycled through the DB's
// memtable pool, so sustained write traffic reuses two backing arrays per
// memtable generation instead of allocating per entry. Ordering is (key
// ascending, sequence descending), so the first node of a key run is the
// newest version — both point lookups and the flush iterator take the
// first hit.

const memMaxHeight = 12

// memNodeOverhead approximates per-entry bookkeeping for the size
// accounting that triggers seals (RocksDB's arena accounting analogue).
const memNodeOverhead = 64

// mnode is one skiplist entry; key/value are spans into the arena and
// next holds slab indices (0 = nil; slot 0 is the head sentinel).
type mnode struct {
	koff, klen int32
	voff, vlen int32
	seq        uint64
	tomb       bool
	next       [memMaxHeight]int32
}

type memtable struct {
	nodes   []mnode
	arena   []byte
	size    int64
	maxSeq  uint64
	walMark int64 // WAL head at seal: reclamation bound once flushed
	db      *DB
}

func (db *DB) putMemtable(m *memtable) {
	m.nodes = m.nodes[:1]
	m.nodes[0] = mnode{}
	m.arena = m.arena[:0]
	m.size = 0
	m.maxSeq = 0
	m.walMark = 0
	db.memPool.Put(m)
}

func (m *memtable) nodeKey(i int32) []byte {
	n := &m.nodes[i]
	return m.arena[n.koff : n.koff+n.klen]
}

func (m *memtable) nodeVal(i int32) []byte {
	n := &m.nodes[i]
	return m.arena[n.voff : n.voff+n.vlen]
}

// nodeLess reports whether node i sorts before (key, seq): key ascending,
// sequence descending, so newer versions of a key come first.
func (m *memtable) nodeLess(i int32, key []byte, seq uint64) bool {
	if c := bytes.Compare(m.nodeKey(i), key); c != 0 {
		return c < 0
	}
	return m.nodes[i].seq > seq
}

func (m *memtable) randHeight() int {
	h := 1
	for h < memMaxHeight && m.db.rng.Intn(4) == 0 {
		h++
	}
	return h
}

func (m *memtable) insert(key, val []byte, seq uint64, tomb bool) {
	var prev [memMaxHeight]int32
	x := int32(0)
	for lv := memMaxHeight - 1; lv >= 0; lv-- {
		for {
			nxt := m.nodes[x].next[lv]
			if nxt != 0 && m.nodeLess(nxt, key, seq) {
				x = nxt
				continue
			}
			break
		}
		prev[lv] = x
	}
	koff := int32(len(m.arena))
	m.arena = append(m.arena, key...)
	voff := int32(len(m.arena))
	m.arena = append(m.arena, val...)
	m.nodes = append(m.nodes, mnode{
		koff: koff, klen: int32(len(key)),
		voff: voff, vlen: int32(len(val)),
		seq: seq, tomb: tomb,
	})
	id := int32(len(m.nodes) - 1)
	h := m.randHeight()
	for lv := 0; lv < h; lv++ {
		m.nodes[id].next[lv] = m.nodes[prev[lv]].next[lv]
		m.nodes[prev[lv]].next[lv] = id
	}
	m.size += int64(len(key)+len(val)) + memNodeOverhead
	if seq > m.maxSeq {
		m.maxSeq = seq
	}
}

// get returns the newest version of key.
func (m *memtable) get(key []byte) (val []byte, tomb, found bool) {
	x := int32(0)
	for lv := memMaxHeight - 1; lv >= 0; lv-- {
		for {
			nxt := m.nodes[x].next[lv]
			if nxt != 0 && bytes.Compare(m.nodeKey(nxt), key) < 0 {
				x = nxt
				continue
			}
			break
		}
	}
	cand := m.nodes[x].next[0]
	if cand == 0 || !bytes.Equal(m.nodeKey(cand), key) {
		return nil, false, false
	}
	return m.nodeVal(cand), m.nodes[cand].tomb, true
}

// memIter walks the skiplist in order, yielding only the newest version
// of each key (older duplicates are skipped) — the flush input stream.
type memIter struct {
	m *memtable
	x int32
}

func (m *memtable) iter() memIter { return memIter{m: m} }

// next advances to the next distinct key; false at the end.
func (it *memIter) next() bool {
	m := it.m
	if it.x == 0 {
		it.x = m.nodes[0].next[0]
		return it.x != 0
	}
	cur := m.nodeKey(it.x)
	for {
		it.x = m.nodes[it.x].next[0]
		if it.x == 0 {
			return false
		}
		if !bytes.Equal(m.nodeKey(it.x), cur) {
			return true
		}
	}
}

func (it *memIter) key() []byte { return it.m.nodeKey(it.x) }
func (it *memIter) val() []byte { return it.m.nodeVal(it.x) }
func (it *memIter) seq() uint64 { return it.m.nodes[it.x].seq }
func (it *memIter) tomb() bool  { return it.m.nodes[it.x].tomb }

func keyLess(a, b []byte) bool { return bytes.Compare(a, b) < 0 }
