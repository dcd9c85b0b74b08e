package core

import (
	"bytes"
	"cmp"
	"slices"

	"github.com/gotuplex/tuplex/internal/rows"
)

// uniqSet is an open hash set over encoded row keys (internal/rows
// AppendRowKey), used per task by the unique terminal and per shard by
// the finish-time merge. Duplicate rows — the common case for unique —
// cost one map lookup plus one bytes.Equal and no allocation; only the
// first occurrence of a key copies the key bytes and the row. Entries
// with colliding 64-bit hashes chain through next indices into ents.
type uniqSet struct {
	idx  map[uint64]int32
	ents []uniqEntry
}

type uniqEntry struct {
	h   uint64
	key []byte
	row rows.Row
	// ord is the row's order key in partition part (set by the merge);
	// the merged output keeps, per distinct key, the row with the
	// smallest (part, ord) — the first in input order.
	ord  uint64
	part int32
	next int32
}

func newUniqSet() *uniqSet {
	return &uniqSet{idx: map[uint64]int32{}}
}

// find returns the entry index for (h, key) or -1.
func (u *uniqSet) find(h uint64, key []byte) int32 {
	i, ok := u.idx[h]
	if !ok {
		return -1
	}
	for i >= 0 {
		if u.ents[i].h == h && bytes.Equal(u.ents[i].key, key) {
			return i
		}
		i = u.ents[i].next
	}
	return -1
}

// insert adds (h, key, row, ord) if the key is absent and reports
// whether it inserted. key is copied; row is copied via rows.CopyRow
// (nil rows stay nil — the exception-dedup index stores keys only).
func (u *uniqSet) insert(h uint64, key []byte, row rows.Row, ord uint64) bool {
	if u.find(h, key) >= 0 {
		return false
	}
	head, had := u.idx[h]
	next := int32(-1)
	if had {
		next = head
	}
	var rcopy rows.Row
	if row != nil {
		rcopy = rows.CopyRow(row)
	}
	u.ents = append(u.ents, uniqEntry{h: h, key: append([]byte(nil), key...), row: rcopy, ord: ord, next: next})
	u.idx[h] = int32(len(u.ents) - 1)
	return true
}

// mergeEntry folds one already-encoded entry of partition part into the
// set, keeping the smallest (part, ord) per key. The entry's key and row
// are referenced, not copied — merge inputs outlive the merged set.
func (u *uniqSet) mergeEntry(e *uniqEntry, part int32) {
	if i := u.find(e.h, e.key); i >= 0 {
		if m := &u.ents[i]; part < m.part || part == m.part && e.ord < m.ord {
			m.row, m.ord, m.part = e.row, e.ord, part
		}
		return
	}
	head, had := u.idx[e.h]
	next := int32(-1)
	if had {
		next = head
	}
	u.ents = append(u.ents, uniqEntry{h: e.h, key: e.key, row: e.row, ord: e.ord, part: part, next: next})
	u.idx[e.h] = int32(len(u.ents) - 1)
}

// uniqIndex is the merged, sharded unique set produced at finish. The
// exception-resolution path probes and extends it (serially) to
// deduplicate slow-path rows against the normal-path output.
type uniqIndex struct {
	shards []*uniqSet
	mask   uint64
	buf    []byte
}

// addRow encodes a boxed-origin row, inserts its key, and reports
// whether the row was new.
func (ui *uniqIndex) addRow(r rows.Row) bool {
	buf := rows.AppendRowKey(ui.buf[:0], r)
	ui.buf = buf
	h := rows.Hash64(buf)
	return ui.shards[h&ui.mask].insert(h, buf, nil, 0)
}

// mergeUnique folds per-task unique sets into the output mat,
// shard-parallel: phase 1 buckets each task's entries by hash shard,
// phase 2 merges each shard across tasks (keeping each row's first
// occurrence), and every surviving row goes back to the partition of
// that occurrence, in key order. It returns the merged index for
// exception deduplication.
func (eng *engine) mergeUnique(sr *stageRun, out *mat) *uniqIndex {
	nshards := shardCount(eng.opts.Executors)
	mask := uint64(nshards - 1)

	tasks := make([]*task, 0, len(sr.tasks))
	for _, ts := range sr.tasks {
		if ts != nil && ts.uniq != nil {
			tasks = append(tasks, ts)
		}
	}

	// Phase 1 — task-parallel: bucket entry indexes by shard.
	perTask := make([][][]int32, len(tasks))
	eng.parallelFor(len(tasks), func(t int) {
		byShard := make([][]int32, nshards)
		for i := range tasks[t].uniq.ents {
			s := tasks[t].uniq.ents[i].h & mask
			byShard[s] = append(byShard[s], int32(i))
		}
		perTask[t] = byShard
	})

	// Phase 2 — shard-parallel merge.
	shards := make([]*uniqSet, nshards)
	eng.parallelFor(nshards, func(s int) {
		us := newUniqSet()
		for t := range tasks {
			ents := tasks[t].uniq.ents
			for _, i := range perTask[t][s] {
				us.mergeEntry(&ents[i], int32(tasks[t].part))
			}
		}
		shards[s] = us
	})

	// Collect the survivors by partition and restore input order.
	byPart := make([][]*uniqEntry, len(out.keys))
	for _, us := range shards {
		for i := range us.ents {
			e := &us.ents[i]
			byPart[e.part] = append(byPart[e.part], e)
		}
	}
	out.parts = make([][]rows.Row, len(byPart))
	for p, ents := range byPart {
		slices.SortFunc(ents, func(a, b *uniqEntry) int { return cmp.Compare(a.ord, b.ord) })
		out.parts[p] = make([]rows.Row, len(ents))
		out.keys[p] = make([]uint64, len(ents))
		for i, e := range ents {
			out.parts[p][i], out.keys[p][i] = e.row, e.ord
		}
	}
	return &uniqIndex{shards: shards, mask: mask}
}
