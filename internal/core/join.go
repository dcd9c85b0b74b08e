package core

import (
	"bytes"
	"fmt"

	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/trace"
	"github.com/gotuplex/tuplex/internal/types"
)

// buildTable is a materialized hash-join build side (§4.5): the build
// plan's normal-case rows keyed for probing, plus a separate map of
// exception-path rows. A probe key that hits the exception map sends the
// probe row to the exception path so all four NC/EC join pairs are
// covered without slowing the fast path.
//
// The normal side stores its contributed columns as column vectors, one
// vector set per build partition (bparts), and the hash table holds
// packed (partition, row) references instead of materialized rows: the
// probe gathers match cells straight from the vectors — column-at-a-time
// on the batch plane, slot-at-a-time on the row bridge — so the build
// never boxes and never allocates per row. Hashing is sharded over the
// canonical 64-bit key hash (internal/rows): shard = hash & shardMask,
// and within a shard a map from hash to the (rare) list of entries
// sharing it, each holding the encoded key bytes for exact equality.
// Probing costs one scratch-buffer key encoding, one map lookup and one
// bytes.Equal — no per-row heap allocation. Shards exist so the build
// can run in parallel across the build side's partitions and so future
// grouped/shuffled operators can reuse the layout.
//
// A buildTable belongs to one run (stageRun.joins): every run re-reads
// the build side's sources and hashes what it finds, so a plan reused
// across runs never probes a previous run's data.
type buildTable struct {
	shards []buildShard
	// shardMask is len(shards)-1 (shard count is a power of two).
	shardMask uint64
	// bparts holds the build side's contributed columns as column
	// vectors, one set per build partition, plus a trailing overflow
	// partition for conforming exception rows. buildRef values index
	// into it. Vectors are sealed once after the build — concurrent
	// probes read cells without mutating vector state.
	bparts [][]*colvec.Vec
	// general holds exception-path build rows, keyed by the same encoded
	// key bytes (as string, for map use); probe keys hitting it divert to
	// the exception path. Rare by construction, so a boxed map is fine.
	general  map[string][][]pyvalue.Value
	genCount int
	// addedCols is the number of columns the build side contributes.
	addedCols int
	// buildRows counts normal-path rows hashed into the shards.
	buildRows int
	// unique records that no key holds more than one normal-path ref in
	// this run's table: the batch probe then refines the probe batch in
	// place instead of remapping it to a fan-out output (runJoinKernel).
	unique bool
}

// buildRef packs one build row's location as partition<<32 | row; the
// partition indexes bt.bparts.
type buildRef = int64

// buildEntry is one distinct join key within a shard.
type buildEntry struct {
	key  []byte
	refs []buildRef
}

// buildShard is one hash shard: a map from 64-bit key hash to the
// entries sharing that hash (almost always exactly one).
type buildShard struct {
	m    map[uint64][]buildEntry
	rows int
	// dup marks a key inserted a second time.
	dup bool
}

// insert appends ref under (h, key), keeping insertion order per key.
// key must stay valid for the table's lifetime (arena- or heap-backed).
func (sh *buildShard) insert(h uint64, key []byte, ref buildRef) {
	ents := sh.m[h]
	for i := range ents {
		if bytes.Equal(ents[i].key, key) {
			ents[i].refs = append(ents[i].refs, ref)
			sh.rows++
			sh.dup = true
			return
		}
	}
	sh.m[h] = append(ents, buildEntry{key: key, refs: []buildRef{ref}})
	sh.rows++
}

// lookup returns the build-row references matching (h, key), or nil.
func (bt *buildTable) lookup(h uint64, key []byte) []buildRef {
	for _, e := range bt.shards[h&bt.shardMask].m[h] {
		if bytes.Equal(e.key, key) {
			return e.refs
		}
	}
	return nil
}

// insert routes one ref to its shard (serial use only — the parallel
// build path writes shards directly).
func (bt *buildTable) insert(h uint64, key []byte, ref buildRef) {
	bt.shards[h&bt.shardMask].insert(h, key, ref)
	bt.buildRows++
}

// appendRow gathers the referenced build row's cells onto out (the
// row-bridge probe path).
func (bt *buildTable) appendRow(out rows.Row, ref buildRef) rows.Row {
	vecs := bt.bparts[ref>>32]
	i := int(int32(ref))
	for _, v := range vecs {
		out = append(out, v.Slot(i))
	}
	return out
}

// boxRow boxes the referenced build row (the exception-path join).
func (bt *buildTable) boxRow(ref buildRef) []pyvalue.Value {
	vecs := bt.bparts[ref>>32]
	i := int(int32(ref))
	out := make([]pyvalue.Value, len(vecs))
	for j, v := range vecs {
		out[j] = v.Slot(i).Value()
	}
	return out
}

// maxShardRows reports the largest shard's row count (balance metric).
func (bt *buildTable) maxShardRows() int {
	max := 0
	for i := range bt.shards {
		if bt.shards[i].rows > max {
			max = bt.shards[i].rows
		}
	}
	return max
}

// shardCount picks a power-of-two shard count: enough to spread the
// parallel build and merge across the executors without fragmenting
// small tables.
func shardCount(executors int) int {
	n := 1
	for n < 4*executors {
		n <<= 1
	}
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	return n
}

// pendingBuildRow is one hashed build row awaiting its shard merge.
type pendingBuildRow struct {
	h uint64
	// off/end delimit the encoded key in the partition's key arena.
	off, end int32
	ref      buildRef
}

// joinBuildCols derives what a join takes from its build side's output
// schema: the contributed columns (build side minus the key, prefixed, in
// output order), their positions in the build rows, and the key's.
func joinBuildCols(sch *types.Schema, op *logical.JoinOp) (added *types.Schema, colMap []int, keyIdx int, err error) {
	keyIdx, ok := sch.Lookup(op.RightKey)
	if !ok {
		return nil, nil, 0, fmt.Errorf("core: join: build side has no column %q (have %v)", op.RightKey, sch.Names())
	}
	var outCols []types.Column
	for i := 0; i < sch.Len(); i++ {
		if i == keyIdx {
			continue
		}
		c := sch.Col(i)
		t := c.Type
		if op.Left {
			// Unmatched probe rows pad with None, so every contributed
			// column is optional in the output schema.
			t = types.Option(t)
		}
		outCols = append(outCols, types.Column{Name: op.RightPrefix + c.Name, Type: t})
		colMap = append(colMap, i)
	}
	return types.NewSchema(outCols), colMap, keyIdx, nil
}

// buildJoinTable executes the build-side chain and hashes it. Per §4.5,
// Tuplex "executes all code paths for the build side of the join and
// resolves its exception rows before executing any code path of the
// other side". The normal-case rows are hashed in two parallel phases
// over the existing partitions: each partition encodes its keys into a
// private arena, appends its projected cells onto per-partition column
// vectors, and buckets packed row references by shard; then each shard
// merges its buckets in partition order (so duplicate-key match order
// stays the input order, exactly as the old single-map build produced).
func (eng *engine) buildJoinTable(jb *joinBuild) (*buildTable, error) {
	// The build side's stage spans nest under a join-build span.
	jsp := eng.tr.Begin("join-build", trace.Str("key", jb.op.RightKey))
	buildMat, err := eng.runChain(jb.chain)
	if err != nil {
		return nil, err
	}
	if buildMat.isAgg {
		return nil, fmt.Errorf("core: cannot join against an aggregate result")
	}
	sch := buildMat.schema
	_, colMap, keyIdx, err := joinBuildCols(sch, jb.op)
	if err != nil {
		return nil, err
	}
	nshards := shardCount(eng.opts.Executors)
	bt := &buildTable{
		shards:    make([]buildShard, nshards),
		shardMask: uint64(nshards - 1),
		general:   make(map[string][][]pyvalue.Value),
		addedCols: len(colMap),
	}

	// Phase 1 — partition-parallel: encode keys, hash, append projected
	// cells onto the partition's column vectors, bucket packed refs by
	// shard. Keys are slices of one per-partition arena and cells live in
	// the vectors: O(1) allocations per partition instead of per row.
	nparts := len(buildMat.parts)
	pend := make([][][]pendingBuildRow, nparts)
	arenas := make([][]byte, nparts)
	bt.bparts = make([][]*colvec.Vec, nparts, nparts+1)
	eng.parallelFor(nparts, func(p int) {
		part := buildMat.parts[p]
		byShard := make([][]pendingBuildRow, nshards)
		arena := make([]byte, 0, len(part)*12)
		vecs := make([]*colvec.Vec, len(colMap))
		for j, i := range colMap {
			vecs[j] = colvec.NewVec(sch.Col(i).Type)
		}
		var buf []byte
		nrows := 0
		for _, r := range part {
			key, kok := rows.AppendJoinKey(buf[:0], r[keyIdx])
			buf = key
			if !kok {
				continue // null keys never match
			}
			h := rows.Hash64(key)
			off := len(arena)
			arena = append(arena, key...)
			for j, i := range colMap {
				vecs[j].AppendSlot(r[i])
			}
			s := h & bt.shardMask
			byShard[s] = append(byShard[s], pendingBuildRow{h: h, off: int32(off), end: int32(len(arena)),
				ref: buildRef(p)<<32 | buildRef(nrows)})
			nrows++
		}
		pend[p] = byShard
		arenas[p] = arena
		bt.bparts[p] = vecs
	})

	// Phase 2 — shard-parallel merge in partition order.
	eng.parallelFor(nshards, func(s int) {
		sh := &bt.shards[s]
		n := 0
		for p := range pend {
			n += len(pend[p][s])
		}
		if n == 0 {
			return
		}
		sh.m = make(map[uint64][]buildEntry, n)
		for p := range pend {
			for _, e := range pend[p][s] {
				sh.insert(e.h, arenas[p][e.off:e.end], e.ref)
			}
		}
	})
	for s := range bt.shards {
		bt.buildRows += bt.shards[s].rows
		if bt.shards[s].m == nil {
			bt.shards[s].m = map[uint64][]buildEntry{}
		}
	}

	// Exception-path build rows (rare): conforming ones join the fast
	// table serially via a trailing overflow partition, the rest stay
	// boxed in the general map.
	var buf []byte
	var overflow []*colvec.Vec
	ovRows := 0
	for _, ex := range buildMat.exceptional {
		if len(ex.vals) != sch.Len() {
			continue
		}
		key, kok := rows.AppendJoinKeyValue(buf[:0], ex.vals[keyIdx])
		buf = key
		if !kok {
			continue
		}
		// Conforming rows can join on the fast path; the rest stay boxed.
		if slots, okc := unboxConforming(ex.vals, sch, make([]rows.Slot, sch.Len())); okc {
			if overflow == nil {
				overflow = make([]*colvec.Vec, len(colMap))
				for j, i := range colMap {
					overflow[j] = colvec.NewVec(sch.Col(i).Type)
				}
				bt.bparts = append(bt.bparts, overflow)
			}
			for j, i := range colMap {
				overflow[j].AppendSlot(slots[i])
			}
			ref := buildRef(len(bt.bparts)-1)<<32 | buildRef(ovRows)
			ovRows++
			bt.insert(rows.Hash64(key), append([]byte(nil), key...), ref)
			continue
		}
		proj := make([]pyvalue.Value, len(colMap))
		for j, i := range colMap {
			proj[j] = ex.vals[i]
		}
		bt.general[string(key)] = append(bt.general[string(key)], proj)
		bt.genCount++
	}

	bt.unique = true
	for s := range bt.shards {
		bt.unique = bt.unique && !bt.shards[s].dup
	}

	// Seal every string vector now: concurrent probe tasks read cells via
	// Slot(), which must never hit the lazy first Seal in parallel.
	for _, vecs := range bt.bparts {
		for _, v := range vecs {
			v.Seal()
		}
	}

	jm := &eng.res.Metrics.Join
	jm.BuildTables.Add(1)
	jm.BuildRows.Add(int64(bt.buildRows))
	jm.GeneralRows.Add(int64(bt.genCount))
	jm.Shards.Store(int64(nshards))
	if m := int64(bt.maxShardRows()); m > jm.MaxShardRows.Load() {
		jm.MaxShardRows.Store(m)
	}
	jsp.Add(trace.Int("build_rows", int64(bt.buildRows)),
		trace.Int("general_rows", int64(bt.genCount)),
		trace.Int("shards", int64(len(bt.shards))),
		trace.Bool("unique_keys", bt.unique))
	eng.tr.End(jsp)
	return bt, nil
}

// joinOutputSchema is the probe-side schema after the join; added is
// joinBuildCols' contributed-column schema.
func joinOutputSchema(probe *types.Schema, op *logical.JoinOp, added *types.Schema) *types.Schema {
	cols := make([]types.Column, 0, probe.Len()+added.Len())
	for i := 0; i < probe.Len(); i++ {
		c := probe.Col(i)
		cols = append(cols, types.Column{Name: op.LeftPrefix + c.Name, Type: c.Type})
	}
	cols = append(cols, added.Columns()...)
	return types.NewSchema(cols)
}
