package lsmdb

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
)

// Leveled compaction. L0 compactions take every L0 table plus the
// overlapping range of L1; deeper compactions pick the single source
// table with the least overlap into the next level (write-amplification
// aware victim picking, the LSM analogue of pblk's cost-benefit GC). The
// merge streams all inputs through pooled block iterators, keeps the
// newest version of each key, drops tombstones at the bottom level, and
// splits output at TableTargetSize.
//
// After the manifest commit the input extents are trimmed: the FTL learns
// the whole span is dead at once, which is what lets a stream-aware FTL
// skip garbage-collecting SSTable data entirely — the LSM already did it.

// targetBytes is the size budget of a level.
func (db *DB) targetBytes(level int) int64 {
	t := db.cfg.MemtableSize * int64(db.cfg.L0CompactionTrigger)
	for i := 1; i <= level; i++ {
		t *= int64(db.cfg.LevelRatio)
	}
	return t
}

// pickCompaction returns the level to compact, or -1: the level most
// over budget — L0 scored by file count against its trigger, deeper
// levels by bytes against targetBytes; the bottom level never compacts.
// Scoring (rather than always preferring L0) keeps a single compactor
// from starving L1+ under a sustained fill: an over-budget L1 left to
// grow makes every later L0 merge rewrite the whole level.
func (db *DB) pickCompaction() int {
	best, bestScore := -1, 1.0
	if n := len(db.levels[0]); n >= db.cfg.L0CompactionTrigger {
		best = 0
		bestScore = float64(n) / float64(db.cfg.L0CompactionTrigger)
	}
	for lv := 1; lv < db.cfg.MaxLevels-1; lv++ {
		if score := float64(db.levelBytes[lv]) / float64(db.targetBytes(lv)); score > bestScore {
			best, bestScore = lv, score
		}
	}
	return best
}

// overlaps reports whether table t overlaps [min,max].
func overlaps(t *tableMeta, min, max []byte) bool {
	return !keyLess(t.maxKey, min) && !keyLess(max, t.minKey)
}

// overlapBytes sums the sizes of next-level tables overlapping t.
func overlapBytes(next []*tableMeta, t *tableMeta) int64 {
	var n int64
	for _, o := range next {
		if overlaps(o, t.minKey, t.maxKey) {
			n += o.size
		}
	}
	return n
}

// compact merges level lv into lv+1.
func (db *DB) compact(p *sim.Proc, lv int) error {
	var srcs []*tableMeta
	if lv == 0 {
		srcs = append(srcs, db.levels[0]...)
	} else {
		// Pick the source with the least next-level overlap: minimal
		// merge cost per byte moved down.
		var best *tableMeta
		var bestOv int64
		for _, t := range db.levels[lv] {
			ov := overlapBytes(db.levels[lv+1], t)
			if best == nil || ov < bestOv || (ov == bestOv && t.id < best.id) {
				best, bestOv = t, ov
			}
		}
		if best == nil {
			return nil
		}
		srcs = append(srcs, best)
	}
	// Key range of the sources, then the overlapping destination tables.
	min := srcs[0].minKey
	max := srcs[0].maxKey
	for _, t := range srcs[1:] {
		if keyLess(t.minKey, min) {
			min = t.minKey
		}
		if keyLess(max, t.maxKey) {
			max = t.maxKey
		}
	}
	var dsts []*tableMeta
	for _, t := range db.levels[lv+1] {
		if overlaps(t, min, max) {
			dsts = append(dsts, t)
		}
	}

	// Newest-first ranking for same-key resolution: L0 tables by id
	// descending (newer flushes win), then source level, then destination.
	inputs := make([]*tableIter, 0, len(srcs)+len(dsts))
	ranks := make([]int, 0, len(srcs)+len(dsts))
	if lv == 0 {
		// levels[0] is in flush order: later entries are newer.
		for i, t := range srcs {
			inputs = append(inputs, db.getIter(t))
			ranks = append(ranks, 1+i)
		}
	} else {
		for _, t := range srcs {
			inputs = append(inputs, db.getIter(t))
			ranks = append(ranks, 1)
		}
	}
	for _, t := range dsts {
		inputs = append(inputs, db.getIter(t))
		ranks = append(ranks, 0)
	}

	bottom := lv+1 == db.cfg.MaxLevels-1
	outputs, err := db.mergeIters(p, inputs, ranks, bottom)
	for _, it := range inputs {
		db.putIter(it)
	}
	if err != nil {
		return err
	}

	// Swap in the new level state (copy-on-write for readers).
	if lv == 0 {
		// Newer L0 tables may have been flushed during the merge: keep them.
		var keep []*tableMeta
		for _, t := range db.levels[0] {
			replaced := false
			for _, s := range srcs {
				if s == t {
					replaced = true
					break
				}
			}
			if !replaced {
				keep = append(keep, t)
			}
		}
		db.levels[0] = keep
	} else {
		var keep []*tableMeta
		for _, t := range db.levels[lv] {
			if t != srcs[0] {
				keep = append(keep, t)
			}
		}
		db.levels[lv] = keep
	}
	for _, s := range srcs {
		db.levelBytes[lv] -= s.size
	}
	next := make([]*tableMeta, 0, len(db.levels[lv+1])-len(dsts)+len(outputs))
	for _, t := range db.levels[lv+1] {
		dropped := false
		for _, d := range dsts {
			if d == t {
				dropped = true
				break
			}
		}
		if !dropped {
			next = append(next, t)
		}
	}
	next = append(next, outputs...)
	// Keep the level sorted by minKey (outputs and survivors are disjoint).
	for i := 1; i < len(next); i++ {
		for j := i; j > 0 && bytes.Compare(next[j].minKey, next[j-1].minKey) < 0; j-- {
			next[j], next[j-1] = next[j-1], next[j]
		}
	}
	db.levels[lv+1] = next
	for _, d := range dsts {
		db.levelBytes[lv+1] -= d.size
	}
	for _, o := range outputs {
		db.levelBytes[lv+1] += o.size
	}

	if err := db.commitManifest(p); err != nil {
		return err
	}
	// The inputs are no longer reachable: free and trim their extents.
	// Compaction IS the garbage collection — the FTL only has to erase.
	for _, s := range srcs {
		db.killTable(s)
	}
	for _, d := range dsts {
		db.killTable(d)
	}
	return nil
}

// mergeIters streams a k-way merge of inputs into output tables. ranks
// break same-key ties: the highest-ranked (newest) record wins.
func (db *DB) mergeIters(p *sim.Proc, inputs []*tableIter, ranks []int, bottom bool) ([]*tableMeta, error) {
	// Prime every iterator.
	for _, it := range inputs {
		if _, err := it.next(p); err != nil {
			return nil, err
		}
	}
	b := db.builders.Get()
	defer db.putBuilder(b)
	var outputs []*tableMeta
	cut := func() error {
		if b.empty() {
			return nil
		}
		t, err := b.finish(p)
		if err != nil {
			return err
		}
		db.CompactionWriteBytes += t.size
		outputs = append(outputs, t)
		return nil
	}
	for {
		// Smallest key; among equals the highest rank wins.
		sel := -1
		for i, it := range inputs {
			if !it.valid {
				continue
			}
			if sel < 0 {
				sel = i
				continue
			}
			switch bytes.Compare(it.key, inputs[sel].key) {
			case -1:
				sel = i
			case 0:
				if ranks[i] > ranks[sel] {
					sel = i
				}
			}
		}
		if sel < 0 {
			break
		}
		win := inputs[sel]
		if !(bottom && win.tomb) {
			b.add(win.key, win.val, win.seq, win.tomb)
		}
		// Advance the winner and every loser holding the same key.
		for i, it := range inputs {
			if i == sel || !it.valid {
				continue
			}
			if bytes.Equal(it.key, win.key) {
				if _, err := it.next(p); err != nil {
					return nil, err
				}
			}
		}
		if _, err := win.next(p); err != nil {
			return nil, err
		}
		if b.size() >= db.cfg.TableTargetSize {
			if err := cut(); err != nil {
				return nil, err
			}
		}
	}
	if err := cut(); err != nil {
		return nil, err
	}
	return outputs, nil
}

// flushMemtable writes one immutable memtable as an L0 table.
func (db *DB) flushMemtable(p *sim.Proc, m *memtable) (*tableMeta, error) {
	b := db.builders.Get()
	defer db.putBuilder(b)
	it := m.iter()
	for it.next() {
		b.add(it.key(), it.val(), it.seq(), it.tomb())
	}
	if b.empty() {
		return nil, fmt.Errorf("lsmdb: flush of empty memtable")
	}
	return b.finish(p)
}
